package repro

// Direct-convolution kernel benchmarks on the five convolutions the
// default ResNet runs (models.DefaultImageHParams over
// datasets.DefaultImageConfig: batch 32, width 6, 10x10 images), forward
// and backward, through the caller-owned-storage entry points the
// autograd tape's warm steps use. Each reports achieved GFLOP/s via
// b.ReportMetric, counting only in-bounds taps and a dense upstream
// gradient — which is what ResNet's convolutions receive: every one feeds
// a BatchNorm, whose backward has no exact zeros. BenchmarkBatchNorm2D
// times that BatchNorm. BENCH_conv.json holds the checked-in before/after
// rows; `make bench-conv` regenerates them.
//
// Load-bearing: the bench-smoke awk gate requires every
// BenchmarkConv*Planes / BenchmarkConv*Into / BenchmarkBatchNorm2D row to
// report 0 allocs/op.

import (
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/tensor"
)

// convLayer is one convolution's geometry: c input and f output channels
// over a size x size image.
type convLayer struct {
	name                       string
	c, f, size, k, stride, pad int
}

// resnetConvLayers lists each distinct convolution of the default ResNet
// (models/resnet.go): the stem, the stage-1 3x3s, stage 2's strided entry
// and its skip projection, and the stage-2 3x3s on the halved image.
func resnetConvLayers() (batch int, layers []convLayer) {
	hp, cfg := models.DefaultImageHParams(), datasets.DefaultImageConfig()
	w, s := hp.Width, cfg.Size
	return hp.Batch, []convLayer{
		{"stem", cfg.Channels, w, s, 3, 1, 1},
		{"s1", w, w, s, 3, 1, 1},
		{"s2b1", w, 2 * w, s, 3, 2, 1},
		{"s2b2", 2 * w, 2 * w, s / 2, 3, 1, 1},
		{"proj", w, 2 * w, s, 1, 2, 0},
	}
}

// macs counts the multiply-adds of one forward pass: per output element,
// the taps that land inside the image (padding taps are never executed).
func (l convLayer) macs(batch int) float64 {
	out := tensor.ConvOut(l.size, l.k, l.stride, l.pad)
	inBounds := 0 // Σ over output positions of in-bounds taps, one axis
	for o := 0; o < out; o++ {
		for k := 0; k < l.k; k++ {
			if i := o*l.stride - l.pad + k; i >= 0 && i < l.size {
				inBounds++
			}
		}
	}
	return float64(batch*l.f*l.c) * float64(inBounds*inBounds)
}

func (l convLayer) operands(batch int) (x, w, dout *tensor.Tensor) {
	rng := tensor.NewRNG(13)
	out := tensor.ConvOut(l.size, l.k, l.stride, l.pad)
	x = tensor.Randn(rng, 1, batch, l.c, l.size, l.size)
	w = tensor.Randn(rng, 1, l.f, l.c, l.k, l.k)
	dout = tensor.Randn(rng, 1, batch, l.f, out, out)
	return x, w, dout
}

func reportConvGFLOPS(b *testing.B, flopsPerOp float64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flopsPerOp*float64(b.N)/s/1e9, "GFLOP/s")
	}
}

// BenchmarkConv2DPlanes is the forward: every sample of one layer through
// Conv2DPlanes, no bias (ResNet's convolutions have
// none), one kernel worker.
func BenchmarkConv2DPlanes(b *testing.B) {
	batch, layers := resnetConvLayers()
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			withPoolWorkers(b, 1)
			x, w, dout := l.operands(batch)
			out := tensor.New(dout.Shape...)
			// One warm call: the kernels' pooled scratch (pass list,
			// packed operands) grows to the layer on first use.
			tensor.Conv2DPlanes(out, x, w, nil, l.stride, l.pad, 0, batch)
			runtime.GC() // see benchGEMMShape
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.Conv2DPlanes(out, x, w, nil, l.stride, l.pad, 0, batch)
			}
			b.StopTimer()
			reportConvGFLOPS(b, 2*l.macs(batch))
		})
	}
}

// BenchmarkConv2DBackwardInto is the backward as the tape's warm step
// runs it at one worker: zero the pooled dx and dw, then the fused pass.
// A backward tap is two multiply-adds (one into dx, one into dw).
func BenchmarkConv2DBackwardInto(b *testing.B) {
	batch, layers := resnetConvLayers()
	for _, l := range layers {
		b.Run(l.name, func(b *testing.B) {
			withPoolWorkers(b, 1)
			x, w, dout := l.operands(batch)
			dx, dw := tensor.New(x.Shape...), tensor.New(w.Shape...)
			tensor.Conv2DBackwardSerialInto(dx, dw, nil, x, w, dout, l.stride, l.pad, false) // warm, as above
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dx.Zero()
				dw.Zero()
				tensor.Conv2DBackwardSerialInto(dx, dw, nil, x, w, dout, l.stride, l.pad, false)
			}
			b.StopTimer()
			reportConvGFLOPS(b, 4*l.macs(batch))
		})
	}
}

// BenchmarkBatchNorm2D is the default ResNet's BatchNorm at its two
// activation shapes (stage 1: width channels over the full image; stage
// 2: twice the channels over the halved image), training mode, through
// the caller-owned-storage kernels the tape's node calls: forward (batch
// statistics, running-statistic update, normalise) and backward (the two
// per-channel sums, then dx, dγ and dβ).
func BenchmarkBatchNorm2D(b *testing.B) {
	hp, cfg := models.DefaultImageHParams(), datasets.DefaultImageConfig()
	for _, l := range []struct {
		name    string
		c, size int
	}{{"s1", hp.Width, cfg.Size}, {"s2", 2 * hp.Width, cfg.Size / 2}} {
		n := hp.Batch
		rng := tensor.NewRNG(13)
		x := tensor.Randn(rng, 1, n, l.c, l.size, l.size)
		dy := tensor.Randn(rng, 1, n, l.c, l.size, l.size)
		gamma, beta := tensor.Randn(rng, 1, l.c), tensor.Randn(rng, 1, l.c)
		runMean, runVar := tensor.New(l.c), tensor.Ones(l.c)
		out, dx := tensor.New(x.Shape...), tensor.New(x.Shape...)
		dgamma, dbeta := tensor.New(l.c), tensor.New(l.c)
		stats := make([]float64, tensor.BatchNormStatsLen(l.c))
		forward := func() {
			tensor.BatchNormForward(out.Data, x.Data, gamma.Data, beta.Data, runMean.Data, runVar.Data, stats, n, l.c, 0.1, 1e-5, true)
		}
		forward()
		b.Run(l.name+"/forward", func(b *testing.B) {
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forward()
			}
		})
		b.Run(l.name+"/backward", func(b *testing.B) {
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.BatchNormBackward(dx.Data, dgamma.Data, dbeta.Data, dy.Data, x.Data, gamma.Data, stats, n, l.c, true)
			}
		})
	}
}

package repro

// GEMM engine benchmarks: the packed, blocked, register-tiled kernels
// behind MatMul/MatMulTransA/MatMulTransB versus the retained naive
// reference, at the three shape regimes the workloads exercise —
// square (ResNet im2col, NCF at production width), tall-skinny (large
// batch through a narrow hidden layer), and short-wide (the
// Transformer's short-tall attention/projection shapes). Each reports
// GFLOP/s via b.ReportMetric, so `make bench-gemm` snapshots kernel
// throughput (BENCH_gemm.json) and trajectories stay comparable across
// PRs.
//
// The small shapes near the engine's dispatch lines (the transformer's
// projections, NCF's MLP, ResNet's classifier, serving batches 1 and 8)
// are timed down EVERY path, in both element types, by BenchmarkGEMMSmall
// in internal/tensor, which can force a path through the unexported
// kernels; `make bench-gemm` runs it after these.
//
// The kernel pool is pinned to 1 worker: these measure single-core
// kernel quality (cache blocking + packing + register tiling), not
// parallel scaling — and keep the timed region allocation-free, which
// the bench-smoke awk gate asserts for every BenchmarkGEMM*.

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// benchGEMMShape times c = a·b through the public entry point of the
// compute regime d (MatMulInto, or MatMulF32Into on the same operands
// narrowed: the one packed engine in either element type, whose float32
// 8×8 micro-kernel moves twice the elements per vector) and reports
// achieved GFLOP/s.
func benchGEMMShape(b *testing.B, d tensor.DType, n, k, m int) {
	b.Helper()
	withPoolWorkers(b, 1)
	rng := tensor.NewRNG(1)
	var run func()
	if d == tensor.Float32 {
		x, y := tensor.NewF32(n, k), tensor.NewF32(k, m)
		x.FromF64(tensor.Randn(rng, 1, n, k), d)
		y.FromF64(tensor.Randn(rng, 1, k, m), d)
		c := tensor.NewF32(n, m)
		run = func() { tensor.MatMulF32Into(c, x, y) }
	} else {
		x := tensor.Randn(rng, 1, n, k)
		y := tensor.Randn(rng, 1, k, m)
		c := tensor.New(n, m)
		run = func() { tensor.MatMulInto(c, x, y) }
	}
	run() // warm the pack-buffer pool
	// Collect the setup debris (operand tensors) now so a GC cycle's own
	// bookkeeping cannot land inside the timed region; the warm loop
	// allocates nothing, so no further GC can trigger. See bench_step_test.go.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	reportGFLOPS(b, n, k, m)
}

// benchGEMMNaiveShape times the same product through the retained naive
// row kernel (the bit-identity reference), for the before/after ratio.
func benchGEMMNaiveShape(b *testing.B, n, k, m int) {
	b.Helper()
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, n, k)
	y := tensor.Randn(rng, 1, k, m)
	c := tensor.New(n, m)
	runtime.GC() // see benchGEMMShape
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulRows(c, x, y, 0, n)
	}
	b.StopTimer()
	reportGFLOPS(b, n, k, m)
}

func reportGFLOPS(b *testing.B, n, k, m int) {
	flops := 2 * float64(n) * float64(k) * float64(m) * float64(b.N)
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(flops/s/1e9, "GFLOP/s")
	}
}

func BenchmarkGEMMSquare512(b *testing.B)       { benchGEMMShape(b, tensor.Float64, 512, 512, 512) }
func BenchmarkGEMMTallSkinny(b *testing.B)      { benchGEMMShape(b, tensor.Float64, 4096, 64, 64) }
func BenchmarkGEMMShortWide(b *testing.B)       { benchGEMMShape(b, tensor.Float64, 32, 64, 2048) }
func BenchmarkGEMMF32Square512(b *testing.B)    { benchGEMMShape(b, tensor.Float32, 512, 512, 512) }
func BenchmarkGEMMF32TallSkinny(b *testing.B)   { benchGEMMShape(b, tensor.Float32, 4096, 64, 64) }
func BenchmarkGEMMF32ShortWide(b *testing.B)    { benchGEMMShape(b, tensor.Float32, 32, 64, 2048) }
func BenchmarkGEMMNaiveSquare512(b *testing.B)  { benchGEMMNaiveShape(b, 512, 512, 512) }
func BenchmarkGEMMNaiveTallSkinny(b *testing.B) { benchGEMMNaiveShape(b, 4096, 64, 64) }
func BenchmarkGEMMNaiveShortWide(b *testing.B)  { benchGEMMNaiveShape(b, 32, 64, 2048) }

// --- Transformer steady-state steps (serial / DP4 / PP4) ---
//
// The Transformer is the workload whose short-tall GEMM shapes the 2-D
// tile scheduler targets; these benchmarks give the README performance
// table its translation rows. (Not part of the 0-alloc awk gate, which
// covers BenchmarkStepAllocs*/BenchmarkStepPipeline*/BenchmarkGEMM*.)

func benchStepTransformerDP(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	eng := dpEngine(b, "translation_transformer", workers, 0, true)
	b.Cleanup(eng.Close)
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkStepTransformerSerial(b *testing.B) { benchStepTransformerDP(b, 1) }
func BenchmarkStepTransformerDP4(b *testing.B)    { benchStepTransformerDP(b, 4) }

func BenchmarkStepTransformerPP4(b *testing.B) {
	eng := transformerPipeline(b, 4)
	for i := 0; i < stepAllocsWarmup; i++ {
		eng.StepNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

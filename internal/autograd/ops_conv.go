package autograd

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv2D applies a 2-D convolution with weights w [F,C,KH,KW] and optional
// bias b [F] (nil for none) over NCHW input x.
func Conv2D(x, w, b *Var, stride, pad int) *Var {
	var bt *tensor.Tensor
	if b != nil {
		bt = b.Value
	}
	ho, wo := tensor.Conv2DOutShape(x.Value, w.Value, bt, stride, pad)
	tp := tapeOf(x, w, b)
	n, f := x.Value.Shape[0], w.Value.Shape[0]
	nd := tp.node(opConv, conv2DBack, x, w, b)
	nd.i0, nd.i1 = stride, pad
	nd.flag = b != nil
	out := tp.result(nd, n, f, ho, wo)
	if nd.fwd == nil {
		nd.fwd = func(lo, hi int) {
			var bias *tensor.Tensor
			if nd.c != nil {
				bias = nd.c.Value
			}
			tensor.Conv2DPlanes(nd.out.Value, nd.a.Value, nd.b.Value, bias, nd.i0, nd.i1, lo, hi)
		}
		nd.bwd = func(lo, hi int) {
			tensor.Conv2DBackwardDxSamples(nd.t0, nd.a.Value, nd.b.Value, nd.out.Grad, nd.i0, nd.i1, lo, hi)
		}
		nd.bwd2 = func(lo, hi int) {
			tensor.Conv2DBackwardDwFilters(nd.t1, nd.t2, nd.a.Value, nd.out.Grad, nd.i0, nd.i1, nd.flag, lo, hi)
		}
	}
	parallel.ForCost(n, tensor.Conv2DSampleCost(x.Value, w.Value, ho, wo), nd.fwd)
	return out
}

// conv2DBack writes the gradients into the node's pooled scratch (the
// kernels overwrite every element, so nothing is zeroed first) and adds
// each to its operand. An input that needs no gradient — ResNet's stem
// reads the data batch — gets no dx pass and no dx scratch at all.
func conv2DBack(nd *node) {
	x, w, b := nd.a, nd.b, nd.c
	stride, pad := nd.i0, nd.i1
	hasBias := nd.flag
	tensor.Conv2DBackwardCheck(x.Value, w.Value, nd.out.Grad, stride, pad)
	n, f := x.Value.Shape[0], w.Value.Shape[0]
	ho, wo := nd.out.Value.Shape[2], nd.out.Value.Shape[3]

	var dx, db *tensor.Tensor
	if x.tape != nil {
		dx = nd.tape.ensureTensor(&nd.t0, x.Value.Shape...)
	}
	dw := nd.tape.ensureTensor(&nd.t1, w.Value.Shape...)
	if hasBias {
		db = nd.tape.ensureTensor(&nd.t2, f)
	}

	sampleCost := tensor.Conv2DSampleCost(x.Value, w.Value, ho, wo)
	if !parallel.Worth(2 * sampleCost * float64(n)) {
		tensor.Conv2DBackwardSerialInto(dx, dw, db, x.Value, w.Value, nd.out.Grad, stride, pad, hasBias)
	} else {
		if dx != nil {
			parallel.ForCost(n, sampleCost, nd.bwd)
		}
		parallel.ForCost(f, sampleCost*float64(n)/float64(f), nd.bwd2)
	}

	if dx != nil {
		x.Grad.AddInPlace(dx)
	}
	if w.tape != nil {
		w.Grad.AddInPlace(dw)
	}
	if b != nil && b.tape != nil {
		b.Grad.AddInPlace(db)
	}
}

// GlobalAvgPool2D reduces [N,C,H,W] to [N,C] by spatial averaging.
func GlobalAvgPool2D(x *Var) *Var {
	tp := tapeOf(x)
	nd := tp.node(opGeneric, globalAvgPool2DBack, x, nil, nil)
	out := tp.result(nd, x.Value.Shape[0], x.Value.Shape[1])
	tensor.GlobalAvgPool2DInto(out.Value, x.Value)
	return out
}

func globalAvgPool2DBack(nd *node) {
	// Each input element receives exactly one gradient term, so direct
	// accumulation is bit-identical to scratch-then-add.
	x := nd.a
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	plane := h * w
	inv := 1.0 / float64(plane)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			g := nd.out.Grad.Data[in*c+ic] * inv
			base := ((in*c + ic) * h) * w
			for p := 0; p < plane; p++ {
				x.Grad.Data[base+p] += g
			}
		}
	}
}

// BatchNorm2D normalizes each channel of an NCHW input over (N,H,W) using
// batch statistics in training mode and the provided running statistics in
// eval mode. In training mode the running statistics are updated in place
// with the given momentum (the "moving average decay" hyperparameter the
// paper calls out in §2.1).
//
// The bits are fixed by the contract in tensor/batchnorm.go: each
// channel's mean, variance, sumDy = Σdy and sumDyXhat = Σdy·x̂ is one add
// chain in ascending (n, h, w) order (channels run side by side, a chain
// is never split), and per element x̂ = (x − μ)·invStd, y = γ·x̂ + β and
// dx += (γ·invStd)·((dy − sumDy/m) − (x̂·sumDyXhat)/m), each operation
// rounded in that order, never fused; m = N·H·W divides per element. The
// running-statistic update keeps its order: (1−momentum)·run +
// momentum·batch.
func BatchNorm2D(x, gamma, beta *Var, runMean, runVar *tensor.Tensor, momentum, eps float64, train bool) *Var {
	n, c := x.Value.Shape[0], x.Value.Shape[1]
	if gamma.Value.Size() != c || beta.Value.Size() != c {
		panic(fmt.Sprintf("autograd: BatchNorm2D gamma/beta size for %d channels", c))
	}
	tp := tapeOf(x, gamma, beta)
	nd := tp.node(opGeneric, batchNorm2DBack, x, gamma, beta)
	nd.flag = train
	nd.buf2 = floatsCap(nd.buf2, tensor.BatchNormStatsLen(c))
	out := tp.result(nd, x.Value.Shape...)
	tensor.BatchNormForward(out.Value.Data, x.Value.Data, gamma.Value.Data, beta.Value.Data,
		runMean.Data, runVar.Data, nd.buf2, n, c, momentum, eps, train)
	return out
}

// batchNorm2DBack adds each differentiable operand's gradient; an operand
// off the tape gets none, and eval mode needs no sums for dx.
//
//mlperfvet:hotpath
func batchNorm2DBack(nd *node) {
	x, gamma, beta := nd.a, nd.b, nd.c
	var dx, dgamma, dbeta []float64
	if x.tape != nil {
		dx = x.Grad.Data
	}
	if gamma.tape != nil {
		dgamma = gamma.Grad.Data
	}
	if beta.tape != nil {
		dbeta = beta.Grad.Data
	}
	tensor.BatchNormBackward(dx, dgamma, dbeta, nd.out.Grad.Data, x.Value.Data, gamma.Value.Data, nd.buf2,
		x.Value.Shape[0], x.Value.Shape[1], nd.flag)
}

// LayerNorm normalizes each row of a 2-D var (the Transformer normalization).
func LayerNorm(x, gamma, beta *Var, eps float64) *Var {
	n, m := x.Value.Shape[0], x.Value.Shape[1]
	if gamma.Value.Size() != m || beta.Value.Size() != m {
		panic("autograd: LayerNorm gamma/beta size mismatch")
	}
	tp := tapeOf(x, gamma, beta)
	nd := tp.node(opGeneric, layerNormBack, x, gamma, beta)
	nd.buf = floatsCap(nd.buf, n*m)
	nd.buf2 = floatsCap(nd.buf2, n)
	xhat, invStd := nd.buf, nd.buf2
	out := tp.result(nd, n, m)
	val := out.Value
	g, b := gamma.Value.Data[:m], beta.Value.Data[:m]
	for i := 0; i < n; i++ {
		row := x.Value.Data[i*m : (i+1)*m]
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		mu /= float64(m)
		va := 0.0
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= float64(m)
		is := 1 / math.Sqrt(va+eps)
		invStd[i] = is
		xh, y := xhat[i*m:(i+1)*m], val.Data[i*m:(i+1)*m]
		for j, v := range row {
			h := (v - mu) * is
			xh[j] = h
			y[j] = g[j]*h + b[j]
		}
	}
	return out
}

// layerNormBack runs one pass per differentiable operand and row, the
// operand tests outside the element loops. The row mean of dy·γ is divided
// once per row: sumDy/mf is the same expression, so the same rounding, on
// every element. The other row term is NOT hoisted: xhat*sumDyXhat/mf
// parses as (xhat·sumDyXhat)/mf, and multiplying xhat by a pre-divided
// sumDyXhat/mf would round differently.
//
//mlperfvet:hotpath
func layerNormBack(nd *node) {
	x, gamma, beta := nd.a, nd.b, nd.c
	n, m := x.Value.Shape[0], x.Value.Shape[1]
	invStd := nd.buf2
	mf := float64(m)
	g := gamma.Value.Data[:m]
	for i := 0; i < n; i++ {
		dy, xh := nd.out.Grad.Data[i*m:(i+1)*m], nd.buf[i*m:(i+1)*m]
		if gamma.tape != nil {
			gg := gamma.Grad.Data[:m]
			for j, d := range dy {
				gg[j] += d * xh[j]
			}
		}
		if beta.tape != nil {
			tensor.AddVec(beta.Grad.Data[:m], dy)
		}
		if x.tape == nil {
			continue
		}
		sumDy, sumDyXhat := 0.0, 0.0
		for j, d := range dy {
			dyg := d * g[j]
			sumDy += dyg
			sumDyXhat += dyg * xh[j]
		}
		meanDy, is := sumDy/mf, invStd[i]
		xg := x.Grad.Data[i*m : (i+1)*m]
		for j, d := range dy {
			xg[j] += is * (d*g[j] - meanDy - xh[j]*sumDyXhat/mf)
		}
	}
}

// RoIBox describes a region of interest in feature-map coordinates for
// RoIAlign. Batch selects the image within the input batch.
type RoIBox struct {
	Batch          int
	X1, Y1, X2, Y2 float64
}

// RoIAlign crops each box from an NCHW feature map and resizes it to
// [size,size] with bilinear interpolation (one sample per bin, the
// simplified RoIAlign used in lightweight Mask R-CNN implementations).
// Output is [R, C, size, size]. Box coordinates are not differentiable.
// The op follows the pooled slot-replay regime: the per-output bilinear
// taps (4 input indices + 4 weights) land in the node's pooled idx/buf
// arrays and backward is a package-level function, so warm passes record
// and replay it without heap allocations.
func RoIAlign(x *Var, boxes []RoIBox, size int) *Var {
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	r := len(boxes)

	tp := tapeOf(x)
	nd := tp.node(opGeneric, roiAlignBack, x, nil, nil)
	out := tp.result(nd, r, c, size, size)
	val := out.Value
	outSize := r * c * size * size
	nd.idx = intsCap(nd.idx, 4*outSize)
	nd.buf = floatsCap(nd.buf, 4*outSize)
	tapIdx, tapWgt := nd.idx, nd.buf

	oi := 0
	for _, box := range boxes {
		if box.Batch < 0 || box.Batch >= n {
			panic(fmt.Sprintf("autograd: RoIAlign batch %d out of %d", box.Batch, n))
		}
		bw := math.Max(box.X2-box.X1, 1e-6)
		bh := math.Max(box.Y2-box.Y1, 1e-6)
		for ic := 0; ic < c; ic++ {
			base := ((box.Batch*c + ic) * h) * w
			for oy := 0; oy < size; oy++ {
				sy := box.Y1 + (float64(oy)+0.5)*bh/float64(size)
				for ox := 0; ox < size; ox++ {
					sx := box.X1 + (float64(ox)+0.5)*bw/float64(size)
					// Clamp sample point into the feature map.
					cy := math.Min(math.Max(sy, 0), float64(h-1))
					cx := math.Min(math.Max(sx, 0), float64(w-1))
					y0 := int(math.Floor(cy))
					x0 := int(math.Floor(cx))
					y1 := min(y0+1, h-1)
					x1 := min(x0+1, w-1)
					fy := cy - float64(y0)
					fx := cx - float64(x0)
					w00 := (1 - fy) * (1 - fx)
					w01 := (1 - fy) * fx
					w10 := fy * (1 - fx)
					w11 := fy * fx
					i00 := base + y0*w + x0
					i01 := base + y0*w + x1
					i10 := base + y1*w + x0
					i11 := base + y1*w + x1
					val.Data[oi] = w00*x.Value.Data[i00] + w01*x.Value.Data[i01] +
						w10*x.Value.Data[i10] + w11*x.Value.Data[i11]
					o4 := 4 * oi
					tapIdx[o4], tapIdx[o4+1], tapIdx[o4+2], tapIdx[o4+3] = i00, i01, i10, i11
					tapWgt[o4], tapWgt[o4+1], tapWgt[o4+2], tapWgt[o4+3] = w00, w01, w10, w11
					oi++
				}
			}
		}
	}
	return out
}

func roiAlignBack(nd *node) {
	x := nd.a
	for i, g := range nd.out.Grad.Data {
		if g == 0 {
			continue
		}
		o4 := 4 * i
		for k := 0; k < 4; k++ {
			x.Grad.Data[nd.idx[o4+k]] += g * nd.buf[o4+k]
		}
	}
}

// SpatialRows rearranges a conv head output [N, G*K, H, W] into per-anchor
// rows [N*H*W*G, K]: row ordering is image-major, then raster order (y, x),
// then group g. Detection heads use it to turn per-cell, per-anchor channel
// groups into classification/regression rows.
// SpatialRows is a pure index permutation, so backward replays it from the
// node's recorded group width alone (package-level backward, no per-step
// closure or scratch — pooled slot-replay regime).
func SpatialRows(x *Var, k int) *Var {
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	if c%k != 0 {
		panic(fmt.Sprintf("autograd: SpatialRows channels %d not divisible by %d", c, k))
	}
	g := c / k
	rows := n * h * w * g

	tp := tapeOf(x)
	nd := tp.node(opGeneric, spatialRowsBack, x, nil, nil)
	nd.i0 = k
	out := tp.result(nd, rows, k)
	val := out.Value
	ri := 0
	for in := 0; in < n; in++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for gi := 0; gi < g; gi++ {
					for ki := 0; ki < k; ki++ {
						ch := gi*k + ki
						val.Data[ri*k+ki] = x.Value.Data[((in*c+ch)*h+y)*w+xx]
					}
					ri++
				}
			}
		}
	}
	return out
}

func spatialRowsBack(nd *node) {
	x := nd.a
	k := nd.i0
	n, c, h, w := x.Value.Shape[0], x.Value.Shape[1], x.Value.Shape[2], x.Value.Shape[3]
	g := c / k
	ri := 0
	for in := 0; in < n; in++ {
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for gi := 0; gi < g; gi++ {
					for ki := 0; ki < k; ki++ {
						ch := gi*k + ki
						x.Grad.Data[((in*c+ch)*h+y)*w+xx] += nd.out.Grad.Data[ri*k+ki]
					}
					ri++
				}
			}
		}
	}
}

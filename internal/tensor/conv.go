package tensor

import (
	"fmt"

	"repro/internal/parallel"
)

// ConvOut returns the spatial output size for input size in, kernel k,
// stride s, and symmetric zero padding p.
func ConvOut(in, k, s, p int) int { return (in+2*p-k)/s + 1 }

// conv2DOutShape validates a convolution's operands (x [N,C,H,W] against a
// filter bank of shape wShape [F,C,KH,KW]) and returns the output's
// spatial size. Every convolution entry point goes through it, so
// a kernel that does not fit the padded input is refused here, not inside
// New with a negative dimension.
func conv2DOutShape(op string, x *Tensor, wShape []int, stride, pad int) (ho, wo int) {
	if x.Rank() != 4 || len(wShape) != 4 {
		panic(fmt.Sprintf("tensor: %s requires rank-4 operands, got %v, %v", op, x.Shape, wShape))
	}
	if x.Shape[1] != wShape[1] {
		panic(fmt.Sprintf("tensor: %s channel mismatch %v vs %v", op, x.Shape, wShape))
	}
	if stride < 1 || pad < 0 {
		panic(fmt.Sprintf("tensor: %s needs stride >= 1 and pad >= 0, got stride %d pad %d", op, stride, pad))
	}
	kh, kw := wShape[2], wShape[3]
	if kh < 1 || kw < 1 || x.Shape[2]+2*pad < kh || x.Shape[3]+2*pad < kw {
		panic(fmt.Sprintf("tensor: %s kernel exceeds the padded input (pad %d) %v vs %v", op, pad, x.Shape, wShape))
	}
	return ConvOut(x.Shape[2], kh, stride, pad), ConvOut(x.Shape[3], kw, stride, pad)
}

// Conv2DOutShape returns the spatial output size of Conv2D(x, w, b, stride,
// pad), panicking with a "tensor: Conv2D ..." message when the operands do
// not describe a convolution: wrong rank, channel disagreement, stride < 1,
// negative padding, a kernel larger than the padded input, or a bias (nil
// for none) that is not [F].
func Conv2DOutShape(x, w, b *Tensor, stride, pad int) (ho, wo int) {
	ho, wo = conv2DOutShape("Conv2D", x, w.Shape, stride, pad)
	if b != nil && (b.Rank() != 1 || b.Shape[0] != w.Shape[0]) {
		panic(fmt.Sprintf("tensor: Conv2D bias %v for %d filters", b.Shape, w.Shape[0]))
	}
	return ho, wo
}

// Conv2DBackwardCheck panics unless (x, w, dout) are the operands and
// upstream gradient of one Conv2D call: x and w as Conv2DOutShape requires,
// and dout exactly [N, F, HO, WO]. The backward kernels index by dout's
// shape, so a gradient of another size that happens to fit would otherwise
// yield wrong numbers silently.
func Conv2DBackwardCheck(x, w, dout *Tensor, stride, pad int) {
	ho, wo := conv2DOutShape("Conv2DBackward", x, w.Shape, stride, pad)
	want := [4]int{x.Shape[0], w.Shape[0], ho, wo}
	if dout.Rank() != 4 || [4]int(dout.Shape) != want {
		panic(fmt.Sprintf("tensor: Conv2DBackward upstream gradient shape mismatch %v vs %v", dout.Shape, want))
	}
}

// Conv2D computes a direct 2-D convolution (cross-correlation, as in all DL
// frameworks) over NCHW input x [N,C,H,W] with weights w [F,C,KH,KW] and
// optional bias b [F] (nil for none). Output is [N,F,HO,WO].
func Conv2D(x, w, b *Tensor, stride, pad int) *Tensor {
	ho, wo := Conv2DOutShape(x, w, b, stride, pad)
	n, c := x.Shape[0], x.Shape[1]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	out := New(n, f, ho, wo)
	// Each (sample, filter) output plane is independent, so planes shard
	// over the pool; within a plane the kernel is the serial one and the
	// result is bit-identical at every worker count.
	planeCost := float64(ho * wo * c * kh * kw)
	parallel.ForCost(n*f, planeCost, func(lo, hi int) {
		Conv2DPlanes(out, x, w, b, stride, pad, lo, hi)
	})
	return out
}

// convGeom is one convolution's geometry, worked out once per kernel call
// and shared by the row kernels. Sample, filter and row offsets inside a
// kernel are relative to one sample of x/dx and one filter of w/dw.
type convGeom struct {
	c, h, wd    int // input channels, height, width
	kh, kw      int
	ho, wo      int
	stride, pad int
}

// clampTaps returns the kernel taps [k0, k1) of a window starting at input
// coordinate i0 that land inside [0, n): the taps the elementwise nest
// would not skip. Empty (k1 <= k0) when the window misses the input.
func clampTaps(i0, k, n int) (k0, k1 int) {
	k1 = k
	if i0 < 0 {
		k0 = -i0
	}
	if i0+k > n {
		k1 = n - i0
	}
	return k0, k1
}

// Conv2DPlanes computes (sample, filter) output planes [lo, hi) of a
// Conv2D call — the exported sharded body, reusable through a cached
// closure by steady-state callers. Every output element is fully
// overwritten.
//
// The kernel is output-stationary: an output element's accumulator starts
// at the bias and stays in a register across the whole (ic, ky, kx)
// reduction, so the output row is written once, not read and rewritten per
// (channel, kernel row). Four output columns go at a time: through
// convFwdBlock3 for 3-wide stride-1 kernels, pad-1 edge columns included,
// and through convFwdBlock for interior columns of any other kernel; the
// columns no block covers go one at a time (convFwdCol). Per output
// element the terms
// arrive in ascending (ic, ky, kx) order with the bias first — the
// elementwise nest's sequence, so results are bit-identical to it (pinned
// against conv2DNaiveRef in conv_test.go).
//
//mlperfvet:hotpath
func Conv2DPlanes(out, x, w, b *Tensor, stride, pad, lo, hi int) {
	g := convGeom{
		c: x.Shape[1], h: x.Shape[2], wd: x.Shape[3],
		kh: w.Shape[2], kw: w.Shape[3],
		ho: out.Shape[2], wo: out.Shape[3],
		stride: stride, pad: pad,
	}
	f := w.Shape[0]
	xSize, wSize := g.c*g.h*g.wd, g.c*g.kh*g.kw
	for plane := lo; plane < hi; plane++ {
		in, of := plane/f, plane%f
		bias := 0.0
		if b != nil {
			bias = b.Data[of]
		}
		xs := x.Data[in*xSize : (in+1)*xSize]
		ws := w.Data[of*wSize : (of+1)*wSize]
		for oy := 0; oy < g.ho; oy++ {
			orow := out.Data[(plane*g.ho+oy)*g.wo : (plane*g.ho+oy+1)*g.wo]
			iy0 := oy*stride - pad
			ky0, ky1 := clampTaps(iy0, g.kh, g.h)
			for ox := 0; ox < g.wo; {
				// The next four columns as one block, when all four fit
				// a block kernel. A last block that would overrun the
				// row backs up over columns already written instead:
				// it writes them the same values again.
				if b := min(ox, g.wo-4); b >= 0 && g.wo-ox >= 2 {
					ix0 := b*stride - pad
					switch {
					case g.kw == 3 && stride == 1 && ix0 >= -1 && ix0+4 < g.wd:
						convFwdBlock3(orow[b:b+4], xs, ws, &g, bias, iy0, ky0, ky1, ix0)
						ox = b + 4
						continue
					case ix0 >= 0 && ix0+3*stride+g.kw <= g.wd:
						convFwdBlock(orow[b:b+4], xs, ws, &g, bias, iy0, ky0, ky1, ix0)
						ox = b + 4
						continue
					}
				}
				orow[ox] = convFwdCol(xs, ws, &g, bias, iy0, ky0, ky1, ox*stride-pad)
				ox++
			}
		}
	}
}

// convFwdBlock3 computes four adjacent output columns of a 3-wide,
// stride-1 kernel, the first starting at input column ix0: kernel rows
// [ky0, ky1) of every channel, four accumulators in registers, the six
// inputs under the block loaded once per row. Column 0 may lack tap 0
// (ix0 == -1) and column 3 may lack tap 2 (it ends one past the row);
// every other tap is in bounds by the caller's check.
//
//mlperfvet:hotpath
func convFwdBlock3(o, xs, ws []float64, g *convGeom, bias float64, iy0, ky0, ky1, ix0 int) {
	cutL, cutR := ix0 < 0, ix0+5 >= g.wd
	s0, s1, s2, s3 := bias, bias, bias, bias
	wd, xStep, wStep := g.wd, g.h*g.wd, g.kh*3
	// Offsets of kernel row ky0 in channel 0: of the block's second input
	// column (the first that always exists) and of the row's weights.
	xo0, wo0 := (iy0+ky0)*wd+ix0+1, ky0*3
	for ic := 0; ic < g.c; ic++ {
		xo, wo := xo0, wo0
		for ky := ky0; ky < ky1; ky++ {
			wr := (*[3]float64)(ws[wo : wo+3])
			w0, w1, w2 := wr[0], wr[1], wr[2]
			// m is the four inputs every block has; the two beside it
			// exist unless the block is cut on that side.
			m := (*[4]float64)(xs[xo : xo+4])
			if !cutL {
				s0 += xs[xo-1] * w0
			}
			s0 += m[0] * w1
			s0 += m[1] * w2
			s1 += m[0] * w0
			s1 += m[1] * w1
			s1 += m[2] * w2
			s2 += m[1] * w0
			s2 += m[2] * w1
			s2 += m[3] * w2
			s3 += m[2] * w0
			s3 += m[3] * w1
			if !cutR {
				s3 += xs[xo+4] * w2
			}
			xo += wd
			wo += 3
		}
		xo0 += xStep
		wo0 += wStep
	}
	o[0], o[1], o[2], o[3] = s0, s1, s2, s3
}

// convFwdBlock computes four adjacent output columns of any kernel whose
// windows all lie inside the row, the first starting at input column ix0.
//
//mlperfvet:hotpath
func convFwdBlock(o, xs, ws []float64, g *convGeom, bias float64, iy0, ky0, ky1, ix0 int) {
	stride, kw := g.stride, g.kw
	s0, s1, s2, s3 := bias, bias, bias, bias
	for ic := 0; ic < g.c; ic++ {
		for ky := ky0; ky < ky1; ky++ {
			wo := (ic*g.kh + ky) * kw
			wr := ws[wo : wo+kw]
			xo := (ic*g.h+iy0+ky)*g.wd + ix0
			c0 := xs[xo:][:len(wr)]
			c1 := xs[xo+stride:][:len(wr)]
			c2 := xs[xo+2*stride:][:len(wr)]
			c3 := xs[xo+3*stride:][:len(wr)]
			for kx, wv := range wr {
				s0 += c0[kx] * wv
				s1 += c1[kx] * wv
				s2 += c2[kx] * wv
				s3 += c3[kx] * wv
			}
		}
	}
	o[0], o[1], o[2], o[3] = s0, s1, s2, s3
}

// convFwdCol computes one output element of any kernel: the in-bounds taps
// of kernel rows [ky0, ky1) of every channel, window starting at input
// column ix0.
//
//mlperfvet:hotpath
func convFwdCol(xs, ws []float64, g *convGeom, bias float64, iy0, ky0, ky1, ix0 int) float64 {
	kx0, kx1 := clampTaps(ix0, g.kw, g.wd)
	s := bias
	if kx1 <= kx0 {
		return s // the window lies wholly in the padding
	}
	for ic := 0; ic < g.c; ic++ {
		for ky := ky0; ky < ky1; ky++ {
			xo := (ic*g.h+iy0+ky)*g.wd + ix0
			wo := (ic*g.kh + ky) * g.kw
			xr := xs[xo+kx0 : xo+kx1]
			wr := ws[wo+kx0:][:len(xr)]
			for kx, xv := range xr {
				s += xv * wr[kx]
			}
		}
	}
	return s
}

// Conv2DBackward computes gradients of a Conv2D call: given upstream grad
// dout [N,F,HO,WO], it returns (dx, dw, db) matching x, w, and bias shapes.
// db is nil when hasBias is false.
//
// One body, convBackwardRows, does all of it. Serially it runs once over
// every (sample, filter) pair. In parallel it runs as two legs: dx shards
// over samples (each sample's dx is written by exactly one worker) and
// dw/db shard over filters (each filter's slice of dw and its db entry are
// written by exactly one worker). Either way each gradient element
// receives its terms in the same order — (of, oy, ox) within a sample for
// dx; (in, oy, ox) within a filter for dw and db — so all three gradients
// are bit-identical at every worker count.
func Conv2DBackward(x, w, dout *Tensor, stride, pad int, hasBias bool) (dx, dw, db *Tensor) {
	Conv2DBackwardCheck(x, w, dout, stride, pad)
	n, c := x.Shape[0], x.Shape[1]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho, wo := dout.Shape[2], dout.Shape[3]
	dx = New(x.Shape...)
	dw = New(w.Shape...)
	if hasBias {
		db = New(f)
	}
	planeCost := float64(ho * wo * c * kh * kw)
	if !parallel.Worth(2 * planeCost * float64(n*f)) {
		Conv2DBackwardSerialInto(dx, dw, db, x, w, dout, stride, pad, hasBias)
		return dx, dw, db
	}
	parallel.ForCost(n, planeCost*float64(f), func(lo, hi int) {
		Conv2DBackwardDxSamples(dx, x, w, dout, stride, pad, lo, hi)
	})
	parallel.ForCost(f, planeCost*float64(n), func(lo, hi int) {
		Conv2DBackwardDwFilters(dw, db, x, dout, stride, pad, hasBias, lo, hi)
	})
	return dx, dw, db
}

// Conv2DBackwardDxSamples accumulates the input gradient for samples
// [lo, hi) into dx (which must be pre-zeroed over those samples) — the
// exported dx leg of Conv2DBackward. Each sample's dx slice is owned by
// exactly one range and accumulated in the serial (of, oy, ox) order.
//
//mlperfvet:hotpath
func Conv2DBackwardDxSamples(dx, x, w, dout *Tensor, stride, pad, lo, hi int) {
	convBackwardRows(dx, nil, nil, x, w, dout, stride, pad, lo, hi, 0, w.Shape[0])
}

// Conv2DBackwardDwFilters accumulates the weight (and, when hasBias, bias)
// gradient for filters [lo, hi) into dw/db (pre-zeroed over those filters)
// — the exported dw leg of Conv2DBackward. Each filter's slice of dw and
// its db entry are owned by exactly one range and accumulated in the
// serial (in, oy, ox) order.
//
//mlperfvet:hotpath
func Conv2DBackwardDwFilters(dw, db, x, dout *Tensor, stride, pad int, hasBias bool, lo, hi int) {
	if !hasBias {
		db = nil
	}
	convBackwardRows(nil, dw, db, x, dw, dout, stride, pad, 0, x.Shape[0], lo, hi)
}

// Conv2DBackwardSerialInto is the single-pass backward used when the
// tensors are too small (or the pool too narrow) to amortize two sharded
// legs: both gradients of every (sample, filter) pair in one sweep. dx, dw,
// and (when hasBias) db must be pre-zeroed; it is exported so steady-state
// callers can reuse scratch gradients across steps.
//
//mlperfvet:hotpath
func Conv2DBackwardSerialInto(dx, dw, db, x, w, dout *Tensor, stride, pad int, hasBias bool) {
	if !hasBias {
		db = nil
	}
	convBackwardRows(dx, dw, db, x, w, dout, stride, pad, 0, x.Shape[0], 0, w.Shape[0])
}

// convBackwardRows is the direct-convolution backward over samples
// [in0, in1) x filters [of0, of1): dx (when non-nil) gets the input
// gradient, dw and db (when non-nil) the weight and bias gradients, all
// accumulated into pre-zeroed storage. w is read only for its shape when
// dx is nil.
//
// It walks dout a row at a time and hands each row to a row kernel that
// applies it to every (ic, ky) row of x/dx and w/dw it touches, so the
// work is indexed by (in, of, oy, ic, ky) with the columns innermost. That
// keeps the elementwise nest's term order, which is the contract:
//
//   - dx[in,ic,iy,ix] receives its terms in ascending (of, oy, ox) order;
//   - dw[of,ic,ky,kx] and db[of] receive theirs in ascending (in, oy, ox)
//     order;
//   - each term is one multiply, then one add;
//   - a zero upstream gradient contributes no term at all, so it stays
//     harmless beside an Inf or NaN weight or input.
//
// (ic and ky only select which element a term lands in, never the order of
// two terms of one element, so sweeping them between oy and ox is free.)
// A row of dout that is all zeros is skipped once, here.
//
//mlperfvet:hotpath
func convBackwardRows(dx, dw, db, x, w, dout *Tensor, stride, pad, in0, in1, of0, of1 int) {
	g := convGeom{
		c: x.Shape[1], h: x.Shape[2], wd: x.Shape[3],
		kh: w.Shape[2], kw: w.Shape[3],
		ho: dout.Shape[2], wo: dout.Shape[3],
		stride: stride, pad: pad,
	}
	f := dout.Shape[1]
	xSize, wSize := g.c*g.h*g.wd, g.c*g.kh*g.kw
	// The 3-wide, pad-1 kernel has its edges written out; it needs a row
	// wide enough that an edge column still has two taps in bounds.
	same3 := g.kw == 3 && pad == 1 && g.wd >= 2
	for in := in0; in < in1; in++ {
		xs := x.Data[in*xSize : (in+1)*xSize]
		var dxs []float64
		if dx != nil {
			dxs = dx.Data[in*xSize : (in+1)*xSize]
		}
		for of := of0; of < of1; of++ {
			var ws, dws []float64
			if dx != nil {
				ws = w.Data[of*wSize : (of+1)*wSize]
			}
			if dw != nil {
				dws = dw.Data[of*wSize : (of+1)*wSize]
			}
			for oy := 0; oy < g.ho; oy++ {
				do := ((in*f+of)*g.ho + oy) * g.wo
				drow := dout.Data[do : do+g.wo : do+g.wo]
				if allZero(drow) {
					continue
				}
				if db != nil {
					s := db.Data[of]
					for _, gv := range drow {
						if gv != 0 {
							s += gv
						}
					}
					db.Data[of] = s
				}
				iy0 := oy*stride - pad
				ky0, ky1 := clampTaps(iy0, g.kh, g.h)
				switch {
				case !same3:
					convBwdRows(dxs, dws, xs, ws, drow, &g, iy0, ky0, ky1)
				case dxs == nil:
					convBwdRows3Dw(dws, xs, drow, &g, iy0, ky0, ky1)
				case dws == nil:
					convBwdRows3Dx(dxs, ws, drow, &g, iy0, ky0, ky1)
				default:
					convBwdRows3(dxs, dws, xs, ws, drow, &g, iy0, ky0, ky1)
				}
			}
		}
	}
}

// allZero reports whether every element of row is an exact zero.
func allZero(row []float64) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// edge3 returns where the interior of a 3-wide, pad-1 row ends: output
// columns [1, hi) have all three taps in bounds, column 0 lacks tap 0, and
// column hi, if hi < wo, is the last one and lacks tap 2.
func (g *convGeom) edge3() (hi int) {
	return min((g.wd-2)/g.stride+1, g.wo)
}

// convBwdRows3 applies one row of dout to both gradients of a 3-wide,
// pad-1 kernel: for every channel and kernel row [ky0, ky1), dx's row
// takes g·w and dw's three taps take g·x, a column at a time in ascending
// ox. The three dw accumulators live in registers across the row; the
// edge columns are written out, not branched per tap.
//
//mlperfvet:hotpath
func convBwdRows3(dxs, dws, xs, ws, drow []float64, g *convGeom, iy0, ky0, ky1 int) {
	stride, wd, hi := g.stride, g.wd, g.edge3()
	xStep, wStep := g.h*wd, g.kh*3
	// Offsets of kernel row ky0 in channel 0.
	xo0, wo0 := (iy0+ky0)*wd, ky0*3
	for ic := 0; ic < g.c; ic++ {
		xo, wo := xo0, wo0
		for ky := ky0; ky < ky1; ky++ {
			xRow := xs[xo : xo+wd : xo+wd]
			dxRow := dxs[xo : xo+wd : xo+wd]
			wRow := (*[3]float64)(ws[wo : wo+3])
			dwRow := (*[3]float64)(dws[wo : wo+3])
			w0, w1, w2 := wRow[0], wRow[1], wRow[2]
			a0, a1, a2 := dwRow[0], dwRow[1], dwRow[2]
			if gv := drow[0]; gv != 0 {
				dxRow[0] += gv * w1
				dxRow[1] += gv * w2
				a1 += gv * xRow[0]
				a2 += gv * xRow[1]
			}
			i := stride - 1 // column ox's window starts at input column i
			for _, gv := range drow[1:hi] {
				if gv != 0 {
					d := dxRow[i : i+3 : i+3]
					d[0] += gv * w0
					d[1] += gv * w1
					d[2] += gv * w2
					v := xRow[i : i+3 : i+3]
					a0 += gv * v[0]
					a1 += gv * v[1]
					a2 += gv * v[2]
				}
				i += stride
			}
			if hi < len(drow) {
				if gv := drow[hi]; gv != 0 {
					dxRow[i] += gv * w0
					dxRow[i+1] += gv * w1
					a0 += gv * xRow[i]
					a1 += gv * xRow[i+1]
				}
			}
			dwRow[0], dwRow[1], dwRow[2] = a0, a1, a2
			xo += wd
			wo += 3
		}
		xo0 += xStep
		wo0 += wStep
	}
}

// convBwdRows3Dx is convBwdRows3's input-gradient half, for the dx leg.
//
//mlperfvet:hotpath
func convBwdRows3Dx(dxs, ws, drow []float64, g *convGeom, iy0, ky0, ky1 int) {
	stride, wd, hi := g.stride, g.wd, g.edge3()
	xStep, wStep := g.h*wd, g.kh*3
	xo0, wo0 := (iy0+ky0)*wd, ky0*3
	for ic := 0; ic < g.c; ic++ {
		xo, wo := xo0, wo0
		for ky := ky0; ky < ky1; ky++ {
			dxRow := dxs[xo : xo+wd : xo+wd]
			wRow := (*[3]float64)(ws[wo : wo+3])
			w0, w1, w2 := wRow[0], wRow[1], wRow[2]
			if gv := drow[0]; gv != 0 {
				dxRow[0] += gv * w1
				dxRow[1] += gv * w2
			}
			i := stride - 1
			for _, gv := range drow[1:hi] {
				if gv != 0 {
					d := dxRow[i : i+3 : i+3]
					d[0] += gv * w0
					d[1] += gv * w1
					d[2] += gv * w2
				}
				i += stride
			}
			if hi < len(drow) {
				if gv := drow[hi]; gv != 0 {
					dxRow[i] += gv * w0
					dxRow[i+1] += gv * w1
				}
			}
			xo += wd
			wo += 3
		}
		xo0 += xStep
		wo0 += wStep
	}
}

// convBwdRows3Dw is convBwdRows3's weight-gradient half, for the dw leg.
//
//mlperfvet:hotpath
func convBwdRows3Dw(dws, xs, drow []float64, g *convGeom, iy0, ky0, ky1 int) {
	stride, wd, hi := g.stride, g.wd, g.edge3()
	xStep, wStep := g.h*wd, g.kh*3
	xo0, wo0 := (iy0+ky0)*wd, ky0*3
	for ic := 0; ic < g.c; ic++ {
		xo, wo := xo0, wo0
		for ky := ky0; ky < ky1; ky++ {
			xRow := xs[xo : xo+wd : xo+wd]
			dwRow := (*[3]float64)(dws[wo : wo+3])
			a0, a1, a2 := dwRow[0], dwRow[1], dwRow[2]
			if gv := drow[0]; gv != 0 {
				a1 += gv * xRow[0]
				a2 += gv * xRow[1]
			}
			i := stride - 1
			for _, gv := range drow[1:hi] {
				if gv != 0 {
					v := xRow[i : i+3 : i+3]
					a0 += gv * v[0]
					a1 += gv * v[1]
					a2 += gv * v[2]
				}
				i += stride
			}
			if hi < len(drow) {
				if gv := drow[hi]; gv != 0 {
					a0 += gv * xRow[i]
					a1 += gv * xRow[i+1]
				}
			}
			dwRow[0], dwRow[1], dwRow[2] = a0, a1, a2
			xo += wd
			wo += 3
		}
		xo0 += xStep
		wo0 += wStep
	}
}

// convBwdRows is the row kernel for every other geometry (any kernel
// width, stride and padding), and for either gradient alone (dxs or dws
// nil): per column the in-bounds taps are clamped once, then run without a
// branch.
//
//mlperfvet:hotpath
func convBwdRows(dxs, dws, xs, ws, drow []float64, g *convGeom, iy0, ky0, ky1 int) {
	for ic := 0; ic < g.c; ic++ {
		for ky := ky0; ky < ky1; ky++ {
			xo := (ic*g.h + iy0 + ky) * g.wd
			wo := (ic*g.kh + ky) * g.kw
			for ox, gv := range drow {
				if gv == 0 {
					continue
				}
				ix0 := ox*g.stride - g.pad
				kx0, kx1 := clampTaps(ix0, g.kw, g.wd)
				if dxs != nil {
					for kx := kx0; kx < kx1; kx++ {
						dxs[xo+ix0+kx] += gv * ws[wo+kx]
					}
				}
				if dws != nil {
					for kx := kx0; kx < kx1; kx++ {
						dws[wo+kx] += gv * xs[xo+ix0+kx]
					}
				}
			}
		}
	}
}

// MaxPool2DInto computes max pooling over NCHW input x with square window k
// and stride s into out, which must have the pooled shape, and writes the
// flat argmax index (into x.Data) of each output element into arg, which
// must have length out.Size().
//
//mlperfvet:hotpath
func MaxPool2DInto(out *Tensor, arg []int, x *Tensor, k, s int) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ho, wo := out.Shape[2], out.Shape[3]
	oi := 0
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					best := 0.0
					bi := -1
					for ky := 0; ky < k; ky++ {
						iy := oy*s + ky
						if iy >= h {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*s + kx
							if ix >= w {
								continue
							}
							idx := base + iy*w + ix
							if bi < 0 || x.Data[idx] > best {
								best, bi = x.Data[idx], idx
							}
						}
					}
					out.Data[oi] = best
					arg[oi] = bi
					oi++
				}
			}
		}
	}
}

// GlobalAvgPool2DInto averages each channel's spatial plane of x
// [N,C,H,W] into out [N,C].
//
//mlperfvet:hotpath
func GlobalAvgPool2DInto(out, x *Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	plane := h * w
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			base := ((in*c + ic) * h) * w
			s := 0.0
			for p := 0; p < plane; p++ {
				s += x.Data[base+p]
			}
			out.Data[in*c+ic] = s / float64(plane)
		}
	}
}

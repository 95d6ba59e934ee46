package tensor

import (
	"fmt"
	"sync"

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
	out := New(x.Shape[0], w.Shape[0], ho, wo)
	// Samples are independent, so they shard over the pool; every output
	// element is computed whole inside one shard, so the result is
	// bit-identical at every worker count.
	parallel.ForCost(x.Shape[0], Conv2DSampleCost(x, w, ho, wo), func(lo, hi int) {
		Conv2DPlanes(out, x, w, b, stride, pad, lo, hi)
	})
	return out
}

// Conv2DSampleCost is the multiply-add count of one sample of a
// convolution of x by w with an ho x wo output (padding taps included):
// the per-item cost the forward and the dx leg shard samples by.
func Conv2DSampleCost(x, w *Tensor, ho, wo int) float64 {
	return float64(w.Shape[0] * ho * wo * x.Shape[1] * w.Shape[2] * w.Shape[3])
}

// The convolution kernels share one operand layout, in which a vector lane
// is an output filter (the forward and dw) or an input channel (dx), never
// an output column. Each pass holds a few result positions in YMM
// accumulators, one lane per filter or channel, and walks their terms in
// the contract's order (convBackward): per term one operand is broadcast,
// the other is a row of lanes from a packed copy, and each lane takes one
// multiply, then one add, never an FMA. A lane is one element's scalar
// sequence, so the layout cannot change a bit:
//
//   - Forward: positions are output pixels; the broadcast is x, the lanes
//     are weights packed [C·KH·KW][F'] and accumulators start at the bias.
//   - dx: positions are input pixels; the broadcast is dout, the lanes are
//     weights packed [F][KH][KW][C'] and accumulators start at +0.
//   - dw: positions are input channels at one kernel tap; the broadcast is
//     x, the lanes are dout packed [N][HO·WO][F'] and accumulators start at
//     +0.
//
// F' and C' are the lane count rounded up: eight lanes (two YMM groups,
// three positions to a pass) or chunks of twelve (three groups, two
// positions): six accumulators either way. The padding lanes are zeros
// and are never stored.
//
// A window that leaves the input depends on the position, not on the
// lane: positions are grouped by which taps they keep, a pass holds
// positions of one group (the last pass of a group repeats a position,
// and the AVX2 body runs such a forward or dx pass on a narrower nest of
// its distinct positions alone), and a missing tap is left out for every
// lane at once, with no masks.
// A pass list depends on the geometry and the lane width alone, never on
// the data or the batch, so each is built once into convPlans.
//
// Where an upstream gradient is an exact zero the AVX2 body replaces the
// product by −0.0 (VCMPPD NEQ_UQ, true for NaN like Go's !=): x + (−0.0)
// is x bit for bit, so the term is as good as skipped. A call whose
// upstream gradient holds no zero runs the same loop without the compare.
//
// The results are overwritten, every element: an output, dx or dw element
// whose window holds no term is written as its bias or +0.

// convPass is one pass: up to three positions sharing their term offsets.
// in and out are each position's offset into the broadcast operand and the
// result (lanes of a result are rStep apart), v the offset of the first
// term's lanes in the packed operand. The terms form an outer × n1 × n2
// nest; after each inner run of n2 terms the offsets advance by bRow and
// vRow, after each run of n1 by bOut and vOut (steps in elements). The
// first np positions are distinct and the rest repeat the last of them,
// so a body may run the first np alone or all of them, to the same bits.
type convPass struct {
	in, out    [3]int
	v          int
	n1, n2     int
	bRow, vRow int
	bOut, vOut int
	np         int
}

// The term operations of a run: which operand is multiplied first (the
// naive nests' order, which fixes a NaN product's payload) and whether a
// zero upstream gradient (the broadcast in dx, a lane in dw) adds no term.
const (
	convBcastFirst = iota // forward x·w, dx g·w on a gradient without zeros
	convBcastZero         // dx g·w, skipping g == 0
	convLaneFirst         // dw g·x on a gradient without zeros
	convLaneZero          // dw g·x, skipping g == 0
)

// convRun is one kernel call: every pass of a pass list over one sample
// (forward, dx) or all of them (dw) and one chunk of lanes. The assembly
// reads it at fixed offsets (conv_amd64.go).
type convRun struct {
	b, v, init, r []float64 // broadcast operand, packed lanes, initial lanes, results
	passes        []convPass
	outer         int // terms' outermost count: channels, filters or samples
	bStep, vStep  int // advance per term
	rStep         int // between a result's lanes
	lanes         int // lanes stored, at most width
	width         int // 8: three positions of two groups; 12: two of three
	kind          int // convBcastFirst … convLaneZero
}

// convRunPasses runs r on the AVX2 body when the CPU has one, otherwise on
// the portable body; both give the same bits.
//
//mlperfvet:hotpath
func convRunPasses(r *convRun) {
	if gemmUseAsm {
		convPassesAVX2(r)
		return
	}
	convPassesGo(r)
}

// convPassesGo is the portable body: the AVX2 loops one lane at a time.
//
//mlperfvet:hotpath
func convPassesGo(r *convRun) {
	zeroB, zeroV, laneFirst := r.kind == convBcastZero, r.kind == convLaneZero, r.kind >= convLaneFirst
	for i := range r.passes {
		ps := &r.passes[i]
		for p := 0; p < ps.np; p++ {
			for l := 0; l < r.lanes; l++ {
				acc := r.init[l]
				bi, vi := ps.in[p], ps.v+l
				for o := 0; o < r.outer && ps.n1 > 0 && ps.n2 > 0; o++ {
					for y := 0; y < ps.n1; y++ {
						for x := 0; x < ps.n2; x++ {
							bv, vv := r.b[bi], r.v[vi]
							switch {
							case zeroB && bv == 0, zeroV && vv == 0:
							case laneFirst:
								acc += vv * bv
							default:
								acc += bv * vv
							}
							bi += r.bStep
							vi += r.vStep
						}
						bi += ps.bRow
						vi += ps.vRow
					}
					bi += ps.bOut
					vi += ps.vOut
				}
				r.r[ps.out[p]+l*r.rStep] = acc
			}
		}
	}
}

// convLanes returns the packed row width for n lanes and the width of one
// run's chunk: up to eight lanes are one chunk of eight, more are chunks of
// twelve.
func convLanes(n int) (row, chunk int) {
	if n <= 8 {
		return 8, 8
	}
	return (n + 11) / 12 * 12, 12
}

// convPer is the positions a pass holds at a chunk width.
func convPer(width int) int {
	if width == 8 {
		return 3
	}
	return 2
}

// convZeroRow is the initial lanes of dx and dw: +0.
var convZeroRow [12]float64

// convGeom is one convolution's geometry.
type convGeom struct {
	n, c, h, w  int
	f, kh, kw   int
	ho, wo      int
	stride, pad int
}

func newConvGeom(x, w, out *Tensor, stride, pad int) convGeom {
	return convGeom{
		n: x.Shape[0], c: x.Shape[1], h: x.Shape[2], w: x.Shape[3],
		f: w.Shape[0], kh: w.Shape[2], kw: w.Shape[3],
		ho: out.Shape[2], wo: out.Shape[3],
		stride: stride, pad: pad,
	}
}

// plan returns g's pass list of one kind at a packed row width and chunk
// width (convLanes); c is dw's input channels, 0 for the other kinds.
//
//mlperfvet:hotpath
func (g *convGeom) plan(kind, c, row, chunk int) []convPass {
	return convPlanFor(convPlanKey{
		kind: kind, h: g.h, w: g.w, ho: g.ho, wo: g.wo, kh: g.kh, kw: g.kw,
		stride: g.stride, pad: g.pad, c: c, row: row, per: convPer(chunk),
	})
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

// convAxis is one index along a spatial axis of a pass list: the result
// index at, the broadcast operand's index from of its first term, that
// term's kernel tap, and its count n of terms along the axis (0: none).
type convAxis struct{ at, from, tap, n int }

// fwdAxis lists the output indices of one forward axis: output o's window
// starts at input o·s − p and keeps the taps clampTaps leaves, ascending.
func fwdAxis(out, k, s, p, size int) []convAxis {
	var a []convAxis
	for o := 0; o < out; o++ {
		e := convAxis{at: o}
		if k0, k1 := clampTaps(o*s-p, k, size); k1 > k0 {
			e.from, e.tap, e.n = o*s-p+k0, k0, k1-k0
		}
		a = append(a, e)
	}
	return a
}

// dxAxis lists the input indices of one dx axis: input i takes its terms
// from the outputs o with 0 <= i + p − o·s < k in ascending o, so from is
// the first such output and tap its kernel tap, the largest (each next
// output's tap is s smaller).
func dxAxis(size, out, k, s, p int) []convAxis {
	var a []convAxis
	for i := 0; i < size; i++ {
		lo := 0
		if d := i + p - k + 1; d > 0 {
			lo = (d + s - 1) / s
		}
		hi := min(out-1, (i+p)/s)
		e := convAxis{at: i}
		if hi >= lo {
			e.from, e.tap, e.n = lo, i+p-lo*s, hi-lo+1
		}
		a = append(a, e)
	}
	return a
}

// dwAxis lists the kernel taps of one dw axis: tap t meets the outputs o
// with 0 <= o·s − p + t < size; from is the first such output and tap the
// input index it meets (each next output's is s further).
func dwAxis(k, out, s, p, size int) []convAxis {
	var a []convAxis
	for t := 0; t < k; t++ {
		lo := 0
		if d := p - t; d > 0 {
			lo = (d + s - 1) / s
		}
		e := convAxis{at: t}
		if d := size - 1 + p - t; d >= 0 {
			if hi := min(out-1, d/s); hi >= lo {
				e.from, e.tap, e.n = lo, lo*s-p+t, hi-lo+1
			}
		}
		a = append(a, e)
	}
	return a
}

// convScratch is one kernel call's packed operands. It comes from
// convScratchPool, so warm calls allocate nothing.
type convScratch struct {
	pack, init []float64
	zeros      []bool // dw's pack: whether each sample's dout holds an exact zero
}

var convScratchPool struct {
	sync.Mutex
	free []*convScratch
}

func getConvScratch() *convScratch {
	convScratchPool.Lock()
	defer convScratchPool.Unlock()
	if n := len(convScratchPool.free); n > 0 {
		sc := convScratchPool.free[n-1]
		convScratchPool.free = convScratchPool.free[:n-1]
		return sc
	}
	return new(convScratch)
}

func putConvScratch(sc *convScratch) {
	convScratchPool.Lock()
	convScratchPool.free = append(convScratchPool.free, sc)
	convScratchPool.Unlock()
}

// grown returns *buf resized to n, growing it when it is too short.
// Contents are unspecified.
func grown[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// The pass list kinds.
const (
	convPlanFwd = iota
	convPlanDx
	convPlanDw
)

// convPlanKey is everything a pass list depends on: its kind, the layer's
// spatial geometry, the input channels (dw only; 0 otherwise), the packed
// row width and the positions per pass. The batch and the lane chunk are
// not in it: one list serves every sample count and every chunk.
type convPlanKey struct {
	kind                 int
	h, w, ho, wo, kh, kw int
	stride, pad          int
	c                    int
	row, per             int
}

// convPlans is the bounded table of built pass lists. A miss builds the
// list once and adds it; a miss that finds the table full empties it
// first, so it holds at most convPlanCap lists and a working set that
// fits is rebuilt at most once after each emptying. A list is never
// written after it is added, so any number of calls read it at once.
const convPlanCap = 64

var convPlans struct {
	sync.Mutex
	m      map[convPlanKey][]convPass
	builds int // pass lists built since the process started
}

// convPlanFor returns the pass list of k, building it on the first call.
//
//mlperfvet:hotpath
func convPlanFor(k convPlanKey) []convPass {
	convPlans.Lock()
	passes, ok := convPlans.m[k]
	convPlans.Unlock()
	if ok {
		return passes
	}
	return buildConvPlan(k)
}

// buildConvPlan is convPlanFor's miss.
func buildConvPlan(k convPlanKey) []convPass {
	passes := k.build()
	convPlans.Lock()
	defer convPlans.Unlock()
	if len(convPlans.m) >= convPlanCap || convPlans.m == nil {
		convPlans.m = make(map[convPlanKey][]convPass, convPlanCap)
	}
	convPlans.m[k] = passes
	convPlans.builds++
	return passes
}

// build runs the builder of k's kind on k's fields alone.
func (k *convPlanKey) build() []convPass {
	switch k.kind {
	case convPlanFwd:
		ys := fwdAxis(k.ho, k.kh, k.stride, k.pad, k.h)
		xs := fwdAxis(k.wo, k.kw, k.stride, k.pad, k.w)
		return gridPasses(ys, xs, convGrid{bh: k.h, bw: k.w, rw: k.wo, kh: k.kh, kw: k.kw, width: k.row, ts: 1}, k.per)
	case convPlanDx:
		ys := dxAxis(k.h, k.ho, k.kh, k.stride, k.pad)
		xs := dxAxis(k.w, k.wo, k.kw, k.stride, k.pad)
		return gridPasses(ys, xs, convGrid{bh: k.ho, bw: k.wo, rw: k.w, kh: k.kh, kw: k.kw, width: k.row, ts: -k.stride}, k.per)
	default:
		ys := dwAxis(k.kh, k.ho, k.stride, k.pad, k.h)
		xs := dwAxis(k.kw, k.wo, k.stride, k.pad, k.w)
		return k.dwPasses(ys, xs)
	}
}

// convKeys returns the distinct (tap, n) pairs of an axis list, in order of
// first appearance.
func convKeys(a []convAxis) []convAxis {
	var keys []convAxis
next:
	for _, e := range a {
		for _, k := range keys {
			if k.tap == e.tap && k.n == e.n {
				continue next
			}
		}
		keys = append(keys, e)
	}
	return keys
}

// convGrid is how a forward or dx pass list maps its positions: the
// broadcast operand's plane is bh x bw, the result's rows are rw long, the
// packed rows are width long, and each next term along an axis moves the
// kernel tap by ts (+1 forward, −stride dx).
type convGrid struct{ bh, bw, rw, kh, kw, width, ts int }

// gridPasses builds the pass list of a forward or dx from its two axis
// lists: positions whose row entries share (tap, n) and whose column
// entries do too take their terms at the same packed offsets, so they
// share passes, per to a pass in raster order, the last pass of each such
// group repeating its last position.
func gridPasses(ys, xs []convAxis, g convGrid, per int) []convPass {
	var passes []convPass
	for _, yk := range convKeys(ys) {
		for _, xk := range convKeys(xs) {
			var ps convPass
			k := 0
			for _, y := range ys {
				if y.tap != yk.tap || y.n != yk.n {
					continue
				}
				for _, x := range xs {
					if x.tap != xk.tap || x.n != xk.n {
						continue
					}
					ps.in[k], ps.out[k] = y.from*g.bw+x.from, y.at*g.rw+x.at
					if k++; k == per {
						passes = append(passes, g.pass(ps, y, x, k))
						k = 0
					}
				}
			}
			if k > 0 {
				for j := k; j < per; j++ {
					ps.in[j], ps.out[j] = ps.in[k-1], ps.out[k-1]
				}
				passes = append(passes, g.pass(ps, yk, xk, k))
			}
		}
	}
	return passes
}

// pass fills in ps the offsets every position of a (y, x) group shares
// and its count np of distinct positions.
func (g convGrid) pass(ps convPass, y, x convAxis, np int) convPass {
	ps.np = np
	ps.v = (y.tap*g.kw + x.tap) * g.width
	ps.n1, ps.n2 = y.n, x.n
	ps.bRow, ps.vRow = g.bw-x.n, (g.kw-x.n)*g.ts*g.width
	ps.bOut, ps.vOut = (g.bh-y.n)*g.bw, (g.kh-y.n*g.ts)*g.kw*g.width
	return ps
}

// dwPasses builds the pass list of dw from its two axis lists: for each
// kernel tap (ky, kx), the input channels per to a pass (the last pass
// repeating the last channel), their terms running over every sample and
// over the outputs the tap meets, in (in, oy, ox) order.
func (k *convPlanKey) dwPasses(ys, xs []convAxis) []convPass {
	s, plane := k.stride, k.h*k.w
	var passes []convPass
	for _, y := range ys {
		for _, x := range xs {
			ps := convPass{
				v:  (y.from*k.wo + x.from) * k.row,
				n1: y.n, n2: x.n,
				bRow: (k.w - x.n) * s, vRow: (k.wo - x.n) * k.row,
				bOut: k.c*plane - y.n*s*k.w, vOut: (k.ho - y.n) * k.wo * k.row,
			}
			for ic0 := 0; ic0 < k.c; ic0 += k.per {
				for p := range k.per {
					ic := min(ic0+p, k.c-1)
					ps.in[p] = ic*plane + y.tap*k.w + x.tap
					ps.out[p] = (ic*k.kh+y.at)*k.kw + x.at
				}
				ps.np = min(k.per, k.c-ic0)
				passes = append(passes, ps)
			}
		}
	}
	return passes
}

// Conv2DPlanes computes samples [lo, hi) of a Conv2D call — the exported
// sharded body, reusable through a cached closure by steady-state callers.
// Every output element of those samples is overwritten: its bias (+0 with
// none), then its terms in ascending (ic, ky, kx) order, the elementwise
// nest's sequence (pinned against conv2DNaiveRef in conv_test.go).
//
//mlperfvet:hotpath
func Conv2DPlanes(out, x, w, b *Tensor, stride, pad, lo, hi int) {
	g := newConvGeom(x, w, out, stride, pad)
	row, chunk := convLanes(g.f)
	sc := getConvScratch()
	taps := g.c * g.kh * g.kw
	wp := grown(&sc.pack, taps*row)
	clear(wp)
	for of := 0; of < g.f; of++ {
		for t, v := range w.Data[of*taps : (of+1)*taps] {
			wp[t*row+of] = v
		}
	}
	init := grown(&sc.init, row)
	clear(init)
	if b != nil {
		copy(init, b.Data[:g.f])
	}
	xSize, plane := g.c*g.h*g.w, g.ho*g.wo
	r := convRun{
		passes: g.plan(convPlanFwd, 0, row, chunk), outer: g.c,
		bStep: 1, vStep: row, rStep: plane,
		width: chunk, kind: convBcastFirst,
	}
	for in := lo; in < hi; in++ {
		r.b = x.Data[in*xSize : (in+1)*xSize]
		for c0 := 0; c0 < g.f; c0 += chunk {
			r.v, r.init = wp[c0:], init[c0:]
			r.r = out.Data[(in*g.f+c0)*plane : (in+1)*g.f*plane]
			r.lanes = min(chunk, g.f-c0)
			convRunPasses(&r)
		}
	}
	putConvScratch(sc)
}

// Conv2DBackward computes gradients of a Conv2D call: given upstream grad
// dout [N,F,HO,WO], it returns (dx, dw, db) matching x, w, and bias shapes.
// db is nil when hasBias is false.
//
// One body, convBackward, does all of it. Serially it runs once over every
// sample and filter. In parallel it runs as two legs: dx shards over
// samples (each sample's dx is written by exactly one worker) and dw/db
// shard over filters (each filter's slice of dw and its db entry are
// written by exactly one worker). Either way each gradient element receives
// its terms in the same order — (of, oy, ox) within a sample for dx;
// (in, oy, ox) within a filter for dw and db — so all three gradients are
// bit-identical at every worker count.
func Conv2DBackward(x, w, dout *Tensor, stride, pad int, hasBias bool) (dx, dw, db *Tensor) {
	Conv2DBackwardCheck(x, w, dout, stride, pad)
	n, f := x.Shape[0], w.Shape[0]
	dx = New(x.Shape...)
	dw = New(w.Shape...)
	if hasBias {
		db = New(f)
	}
	sampleCost := Conv2DSampleCost(x, w, dout.Shape[2], dout.Shape[3])
	if !parallel.Worth(2 * sampleCost * float64(n)) {
		Conv2DBackwardSerialInto(dx, dw, db, x, w, dout, stride, pad, hasBias)
		return dx, dw, db
	}
	parallel.ForCost(n, sampleCost, func(lo, hi int) {
		Conv2DBackwardDxSamples(dx, x, w, dout, stride, pad, lo, hi)
	})
	parallel.ForCost(f, sampleCost*float64(n)/float64(f), func(lo, hi int) {
		Conv2DBackwardDwFilters(dw, db, x, dout, stride, pad, hasBias, lo, hi)
	})
	return dx, dw, db
}

// Conv2DBackwardDxSamples writes the input gradient of samples [lo, hi)
// into dx — the exported dx leg of Conv2DBackward. Each sample's dx slice
// is owned by exactly one range and summed in the serial (of, oy, ox)
// order; every element of it is overwritten.
//
//mlperfvet:hotpath
func Conv2DBackwardDxSamples(dx, x, w, dout *Tensor, stride, pad, lo, hi int) {
	convBackward(dx, nil, nil, x, w, dout, stride, pad, lo, hi, 0, 0)
}

// Conv2DBackwardDwFilters writes the weight (and, when hasBias, bias)
// gradient of filters [lo, hi) into dw/db — the exported dw leg of
// Conv2DBackward. Each filter's slice of dw and its db entry are owned by
// exactly one range and summed in the serial (in, oy, ox) order; every
// element of them is overwritten.
//
//mlperfvet:hotpath
func Conv2DBackwardDwFilters(dw, db, x, dout *Tensor, stride, pad int, hasBias bool, lo, hi int) {
	if !hasBias {
		db = nil
	}
	convBackward(nil, dw, db, x, dw, dout, stride, pad, 0, 0, lo, hi)
}

// Conv2DBackwardSerialInto is the single pass used when the tensors are
// too small (or the pool too narrow) to amortize two sharded legs: every
// gradient of every sample and filter in one call. dx, dw and (when
// hasBias) db are overwritten, so steady-state callers reuse scratch
// gradients across steps without zeroing them; a nil dx (an input that
// needs no gradient) skips the dx pass.
//
//mlperfvet:hotpath
func Conv2DBackwardSerialInto(dx, dw, db, x, w, dout *Tensor, stride, pad int, hasBias bool) {
	if !hasBias {
		db = nil
	}
	convBackward(dx, dw, db, x, w, dout, stride, pad, 0, x.Shape[0], 0, w.Shape[0])
}

// convBackward is the direct-convolution backward: dx (when non-nil) of
// samples [in0, in1), and dw and db (when non-nil) of filters [of0, of1)
// over every sample, each element overwritten. w is read only for its
// shape when dx is nil. The term order is the contract:
//
//   - dx[in,ic,iy,ix] receives its terms in ascending (of, oy, ox) order;
//   - dw[of,ic,ky,kx] and db[of] receive theirs in ascending (in, oy, ox)
//     order;
//   - every sum starts at +0, and each term is one multiply (g·w into dx,
//     g·x into dw), then one add;
//   - a zero upstream gradient contributes no term at all, so it stays
//     harmless beside an Inf or NaN weight or input.
//
// The dx pass is output-stationary per input pixel, lanes = input
// channels; the dw pass keeps each (ic, ky, kx) accumulator in a register
// across the whole (in, oy, ox) sweep, lanes = filters. db is summed while
// dout is packed for dw. The dw pass runs first: its pack tests every
// element of dout it reads for an exact zero, so when it reads every
// filter (the single pass) its per-sample flags choose dx's loop and dout
// is not scanned twice.
//
//mlperfvet:hotpath
func convBackward(dx, dw, db, x, w, dout *Tensor, stride, pad, in0, in1, of0, of1 int) {
	g := newConvGeom(x, w, dout, stride, pad)
	sc := getConvScratch()
	var zeros []bool
	if (dw != nil || db != nil) && of1 > of0 {
		zeros = convBackwardDw(sc, &g, dw, db, x, dout, of0, of1)
	}
	if dx != nil && in1 > in0 {
		convBackwardDx(sc, &g, dx, w, dout, in0, in1, zeros)
	}
	putConvScratch(sc)
}

// convBackwardDx is convBackward's dx pass over samples [in0, in1). zeros,
// when not nil, says per sample whether its dout holds an exact zero;
// otherwise each sample's dout is scanned for one.
//
//mlperfvet:hotpath
func convBackwardDx(sc *convScratch, g *convGeom, dx, w, dout *Tensor, in0, in1 int, zeros []bool) {
	row, chunk := convLanes(g.c)
	kk := g.kh * g.kw
	wp := grown(&sc.pack, g.f*kk*row)
	clear(wp)
	for of := 0; of < g.f; of++ {
		for c := 0; c < g.c; c++ {
			o := of*kk*row + c
			for _, v := range w.Data[(of*g.c+c)*kk : (of*g.c+c+1)*kk] {
				wp[o] = v
				o += row
			}
		}
	}
	xSize, dSize, plane := g.c*g.h*g.w, g.f*g.ho*g.wo, g.h*g.w
	r := convRun{
		passes: g.plan(convPlanDx, 0, row, chunk), init: convZeroRow[:], outer: g.f,
		bStep: 1, vStep: -g.stride * row, rStep: plane,
		width: chunk,
	}
	for in := in0; in < in1; in++ {
		r.b = dout.Data[in*dSize : (in+1)*dSize]
		r.kind = convBcastFirst
		if zeros != nil && zeros[in] || zeros == nil && hasZero(r.b) {
			r.kind = convBcastZero
		}
		for c0 := 0; c0 < g.c; c0 += chunk {
			r.v = wp[c0:]
			r.r = dx.Data[in*xSize+c0*plane : (in+1)*xSize]
			r.lanes = min(chunk, g.c-c0)
			convRunPasses(&r)
		}
	}
}

// convBackwardDw is convBackward's dw and db pass over filters [of0, of1).
// Its pack tests every element of dout it reads for an exact zero; when
// that is every filter, it returns the per-sample flags (in sc), so the dx
// pass need not scan dout again, and nil otherwise.
//
//mlperfvet:hotpath
func convBackwardDw(sc *convScratch, g *convGeom, dw, db, x, dout *Tensor, of0, of1 int) []bool {
	nf := of1 - of0
	row, chunk := convLanes(nf)
	plane := g.ho * g.wo
	gp := grown(&sc.pack, g.n*plane*row)
	if db != nil {
		clear(db.Data[of0:of1])
	}
	zeros, zero := grown(&sc.zeros, g.n), false
	for in := 0; in < g.n; in++ {
		z := false
		dst := gp[in*plane*row : (in+1)*plane*row]
		src := dout.Data[(in*g.f+of0)*plane : (in*g.f+of1)*plane]
		// Four filters at a time, so each position's four lanes are one
		// contiguous store; the rest of the filters and the padding lanes
		// one at a time.
		j := 0
		for ; j+4 <= nf; j += 4 {
			s0 := src[j*plane : (j+1)*plane]
			s1 := src[(j+1)*plane : (j+2)*plane][:len(s0)]
			s2 := src[(j+2)*plane : (j+3)*plane][:len(s0)]
			s3 := src[(j+3)*plane : (j+4)*plane][:len(s0)]
			for p, v0 := range s0 {
				v1, v2, v3 := s1[p], s2[p], s3[p]
				d := dst[p*row+j : p*row+j+4]
				d[0], d[1], d[2], d[3] = v0, v1, v2, v3
				if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
					z = true
				}
			}
		}
		for ; j < row; j++ {
			p := j
			if j >= nf {
				for ; p < len(dst); p += row {
					dst[p] = 0
				}
				continue
			}
			for _, v := range src[j*plane : (j+1)*plane] {
				dst[p] = v
				p += row
				if v == 0 {
					z = true
				}
			}
		}
		if db != nil {
			for j := 0; j < nf; j++ {
				s := db.Data[of0+j]
				for _, v := range src[j*plane : (j+1)*plane] {
					if v != 0 {
						s += v
					}
				}
				db.Data[of0+j] = s
			}
		}
		zeros[in], zero = z, zero || z
	}
	if of0 != 0 || of1 != g.f {
		zeros = nil
	}
	if dw == nil {
		return zeros
	}
	taps := g.c * g.kh * g.kw
	r := convRun{
		b: x.Data, passes: g.plan(convPlanDw, g.c, row, chunk), init: convZeroRow[:], outer: g.n,
		bStep: g.stride, vStep: row, rStep: taps,
		width: chunk, kind: convLaneFirst,
	}
	if zero {
		r.kind = convLaneZero
	}
	for c0 := 0; c0 < nf; c0 += chunk {
		r.v = gp[c0:]
		r.r = dw.Data[(of0+c0)*taps : of1*taps]
		r.lanes = min(chunk, nf-c0)
		convRunPasses(&r)
	}
	return zeros
}

// hasZero reports whether any element of s is an exact zero.
func hasZero(s []float64) bool {
	for _, v := range s {
		if v == 0 {
			return true
		}
	}
	return false
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

package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// conv2DNaiveRef is the retained elementwise reference for the
// convolution forward: the original (oy, ox, ic, ky, kx) nest with bias
// first and out-of-bounds taps skipped. Conv2DPlanes' filter lanes must
// reproduce it bit for bit.
func conv2DNaiveRef(x, w, b *Tensor, stride, pad int) *Tensor {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho, wo := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	out := New(n, f, ho, wo)
	for in := 0; in < n; in++ {
		for of := 0; of < f; of++ {
			bias := 0.0
			if b != nil {
				bias = b.Data[of]
			}
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					s := bias
					iy0, ix0 := oy*stride-pad, ox*stride-pad
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								s += x.Data[((in*c+ic)*h+iy)*wd+ix] * w.Data[((of*c+ic)*kh+ky)*kw+kx]
							}
						}
					}
					out.Data[((in*f+of)*ho+oy)*wo+ox] = s
				}
			}
		}
	}
	return out
}

// conv2DBackwardNaiveRef is the retained elementwise reference for the
// convolution backward: the original six-deep (in, of, oy, ox, ic, ky, kx)
// nest, a bounds test per tap, both gradients updated in memory per tap,
// and an exact-zero upstream gradient skipped whole. It defines the term
// order the lane kernels must keep: dx, dw and db out of convBackward must
// equal it bit for bit.
func conv2DBackwardNaiveRef(x, w, dout *Tensor, stride, pad int, hasBias bool) (dx, dw, db *Tensor) {
	n, c, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	f, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	ho, wo := dout.Shape[2], dout.Shape[3]
	dx, dw = New(x.Shape...), New(w.Shape...)
	if hasBias {
		db = New(f)
	}
	for in := 0; in < n; in++ {
		for of := 0; of < f; of++ {
			for oy := 0; oy < ho; oy++ {
				for ox := 0; ox < wo; ox++ {
					g := dout.Data[((in*f+of)*ho+oy)*wo+ox]
					if g == 0 {
						continue
					}
					if hasBias {
						db.Data[of] += g
					}
					iy0 := oy*stride - pad
					ix0 := ox*stride - pad
					for ic := 0; ic < c; ic++ {
						xBase := ((in*c + ic) * h) * wd
						wBase := ((of*c + ic) * kh) * kw
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xBase + iy*wd
							wRow := wBase + ky*kw
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								dx.Data[xRow+ix] += g * w.Data[wRow+kx]
								dw.Data[wRow+kx] += g * x.Data[xRow+ix]
							}
						}
					}
				}
			}
		}
	}
	return dx, dw, db
}

// convCase is one convolution geometry of the parity tables and the fuzz
// corpus: batch n, c input and f output channels, an h x w image, a
// k x k kernel.
type convCase struct{ n, c, h, w, f, k, stride, pad int }

func (cc convCase) fits() bool {
	return cc.h+2*cc.pad >= cc.k && cc.w+2*cc.pad >= cc.k
}

// resnetConvCases are the five convolutions of the default ResNet
// (bench_conv_test.go) at batch 2.
var resnetConvCases = []convCase{
	{2, 3, 10, 10, 6, 3, 1, 1},  // stem
	{2, 6, 10, 10, 6, 3, 1, 1},  // stage 1
	{2, 6, 10, 10, 12, 3, 2, 1}, // stage 2 entry, strided
	{2, 12, 5, 5, 12, 3, 1, 1},  // stage 2
	{2, 6, 10, 10, 12, 1, 2, 0}, // 1x1 strided skip projection
}

// edgeConvCases are the shapes a blocked or unrolled kernel gets wrong
// first: output rows narrower than any block (wo 1, 2, 3, 5), rows that
// are exactly one or two blocks, inputs too narrow for an edge column to
// keep two taps, padding from none to wider than the kernel, strides to
// 3, even kernels, and non-square images.
var edgeConvCases = []convCase{
	{2, 3, 9, 9, 4, 3, 1, 1},
	{1, 2, 8, 8, 3, 3, 2, 1},
	{2, 4, 7, 7, 5, 1, 1, 0},
	{1, 3, 10, 6, 2, 5, 1, 2},
	{1, 1, 5, 5, 1, 3, 1, 4}, // padding wider than the kernel
	{2, 2, 6, 6, 3, 2, 2, 0},
	{1, 2, 4, 11, 2, 3, 3, 1},
	{1, 2, 3, 1, 2, 3, 1, 1},  // wo 1: the one column lacks taps 0 and 2
	{1, 2, 1, 2, 2, 3, 1, 1},  // wo 2: both columns are edges
	{2, 1, 4, 3, 2, 3, 1, 1},  // wo 3
	{1, 2, 5, 5, 3, 3, 1, 0},  // pad 0: wo 3, no edges at all
	{1, 3, 3, 4, 2, 3, 1, 1},  // wo 4: one block, cut on both sides
	{1, 2, 2, 8, 2, 3, 1, 1},  // wo 8: two blocks
	{1, 2, 6, 9, 2, 3, 2, 1},  // stride 2, odd width: wo 5 with a right edge
	{1, 2, 6, 8, 2, 3, 2, 1},  // stride 2, even width: wo 4, no right edge
	{1, 2, 7, 13, 2, 3, 3, 1}, // stride 3
	{1, 2, 6, 7, 2, 3, 1, 2},  // 3-wide kernel, pad 2: two edge columns a side
	{2, 2, 5, 7, 3, 2, 1, 1},  // even kernel with padding
	{1, 2, 9, 8, 2, 5, 2, 2},
	{1, 1, 6, 6, 1, 5, 3, 6}, // 5-wide kernel, pad wider than it
	{1, 2, 5, 6, 2, 1, 3, 1}, // 1x1 kernel with padding: some outputs see no input
}

// forShards calls body on [0, n) cut into k contiguous ranges, in order:
// the pool's sharding without its cost threshold, which keeps shapes this
// small on one goroutine.
func forShards(n, k int, body func(lo, hi int)) {
	for i := 0; i < k; i++ {
		if lo, hi := i*n/k, (i+1)*n/k; lo < hi {
			body(lo, hi)
		}
	}
}

// tensorPair is one output to compare against its reference.
type tensorPair struct {
	name      string
	got, want *Tensor
}

// checkPairs holds every pair to sameBits; a nil reference (db without a
// bias) must be matched by a nil output.
func checkPairs(t *testing.T, label string, shards int, pairs []tensorPair) {
	t.Helper()
	for _, p := range pairs {
		if p.got == nil || p.want == nil {
			if p.got != p.want {
				t.Fatalf("%s, %d shards: %s is %v, reference %v", label, shards, p.name, p.got, p.want)
			}
			continue
		}
		sameBits(t, label+": "+p.name+" vs the naive reference", shards, p.got, p.want)
	}
}

// checkConvForward compares Conv2D(x, w, bias) to the naive reference bit
// for bit, through the public entry point at the current pool width and
// through Conv2DPlanes cut into the given number of sample shards, over an
// output filled with a canary first: every element must be overwritten.
func checkConvForward(t *testing.T, label string, x, w, bias *Tensor, stride, pad, shards int) {
	t.Helper()
	want := conv2DNaiveRef(x, w, bias, stride, pad)
	out := Full(convCanary, want.Shape...)
	forShards(x.Shape[0], shards, func(lo, hi int) { Conv2DPlanes(out, x, w, bias, stride, pad, lo, hi) })
	checkPairs(t, label, shards, []tensorPair{{"Conv2D", Conv2D(x, w, bias, stride, pad), want}, {"Conv2DPlanes", out, want}})
}

// convCanary fills result storage before a kernel runs: the kernels
// overwrite every element, so none of it may survive.
const convCanary = -7.25

// checkConvBackward does the same for the gradients under dout: the public
// Conv2DBackward, and the exported bodies over canary-filled storage — the
// single pass for one shard, otherwise the dx leg cut by samples and the
// dw leg cut by filters (so cuts fall inside a lane group).
func checkConvBackward(t *testing.T, label string, x, w, dout *Tensor, stride, pad int, hasBias bool, shards int) {
	t.Helper()
	n, f := x.Shape[0], w.Shape[0]
	wantDx, wantDw, wantDb := conv2DBackwardNaiveRef(x, w, dout, stride, pad, hasBias)
	dx, dw, db := Full(convCanary, x.Shape...), Full(convCanary, w.Shape...), (*Tensor)(nil)
	if hasBias {
		db = Full(convCanary, f)
	}
	if shards == 1 {
		Conv2DBackwardSerialInto(dx, dw, db, x, w, dout, stride, pad, hasBias)
	} else {
		forShards(n, shards, func(lo, hi int) { Conv2DBackwardDxSamples(dx, x, w, dout, stride, pad, lo, hi) })
		forShards(f, shards, func(lo, hi int) { Conv2DBackwardDwFilters(dw, db, x, dout, stride, pad, hasBias, lo, hi) })
	}
	pdx, pdw, pdb := Conv2DBackward(x, w, dout, stride, pad, hasBias)
	checkPairs(t, label, shards, []tensorPair{
		{"Conv2DBackward dx", pdx, wantDx}, {"Conv2DBackward dw", pdw, wantDw}, {"Conv2DBackward db", pdb, wantDb},
		{"sharded dx", dx, wantDx}, {"sharded dw", dw, wantDw}, {"sharded db", db, wantDb},
	})
	// Without dx the single pass leaves it alone and writes the same dw.
	dw2 := Full(convCanary, w.Shape...)
	Conv2DBackwardSerialInto(nil, dw2, nil, x, w, dout, stride, pad, false)
	checkPairs(t, label+" without dx", shards, []tensorPair{{"dw", dw2, wantDw}})
}

// forConvBodies runs body on the AVX2 convolution body, when the machine
// has one, and on the portable body, restoring the choice after.
func forConvBodies(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	haveAsm := gemmUseAsm
	defer func() { gemmUseAsm = haveAsm }()
	for _, asm := range []bool{true, false} {
		if asm && !haveAsm {
			continue
		}
		gemmUseAsm = asm
		name := "portable"
		if asm {
			name = "avx2"
		}
		t.Run(name, body)
	}
}

// convOperands draws a case's tensors from rng. zeroFrac of dout's entries
// are exact zeros; zeroRows additionally blanks every other row of dout.
func convOperands(rng *RNG, cc convCase, zeroFrac float64, zeroRows bool) (x, w, bias, dout *Tensor) {
	x = Randn(rng, 1, cc.n, cc.c, cc.h, cc.w)
	w = Randn(rng, 1, cc.f, cc.c, cc.k, cc.k)
	bias = Randn(rng, 1, cc.f)
	sparsify(rng, x)
	ho, wo := ConvOut(cc.h, cc.k, cc.stride, cc.pad), ConvOut(cc.w, cc.k, cc.stride, cc.pad)
	dout = Randn(rng, 1, cc.n, cc.f, ho, wo)
	for i := range dout.Data {
		if rng.Float64() < zeroFrac || (zeroRows && (i/wo)%2 == 0) {
			dout.Data[i] = 0
		}
	}
	return x, w, bias, dout
}

// laneConvCases put every lane count the kernels treat differently on
// both lane axes: F (forward and dw lanes) and C (dx lanes) of 1-8 (one
// chunk of two groups, tails of 1-3), 9-12 (one chunk of three groups
// storing 9-12 lanes) and 13-23 (a second chunk storing a tail of 1-11
// lanes), so every store count of both widths runs, at both strides.
var laneConvCases = func() []convCase {
	counts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}
	var cases []convCase
	for i, v := range counts {
		cases = append(cases, convCase{2, v, 5, 6, counts[(i+5)%len(counts)], 3, 1 + i%2, 1})
	}
	return cases
}()

// serialAndWorkerCounts is every pool width and shard count the parity
// tests run at: 1 takes the single-pass backward, the rest the two legs.
// Five shards of 12 or 13 filters cut inside a lane group.
var serialAndWorkerCounts = append([]int{1, 5}, workerCounts...)

// TestConv2DMatchesNaiveRefs pins the forward and backward kernels to the
// elementwise references, bit for bit, on both bodies, over the ResNet
// layer shapes, the edge shapes and the lane-count shapes, with and
// without bias, at every pool width, under a dense upstream gradient, one
// that is half exact zeros, and one with whole rows of zeros. Shapes this
// small stay under the pool's fork threshold, so the sharded bodies are
// also driven directly.
func TestConv2DMatchesNaiveRefs(t *testing.T) {
	cases := append(append(append([]convCase(nil), resnetConvCases...), edgeConvCases...), laneConvCases...)
	forConvBodies(t, func(t *testing.T) {
		rng := NewRNG(61)
		for _, cc := range cases {
			for _, sp := range []struct {
				name     string
				zeroFrac float64
				zeroRows bool
			}{{"dense", 0, false}, {"half-zero", 0.5, false}, {"zero-rows", 0.2, true}} {
				x, w, bias, dout := convOperands(rng, cc, sp.zeroFrac, sp.zeroRows)
				for _, b := range []*Tensor{nil, bias} {
					for _, wk := range serialAndWorkerCounts {
						withWorkers(t, wk, func() {
							label := fmt.Sprintf("%+v %s bias=%v", cc, sp.name, b != nil)
							checkConvForward(t, label, x, w, b, cc.stride, cc.pad, wk)
							checkConvBackward(t, label, x, w, dout, cc.stride, cc.pad, b != nil, wk)
						})
					}
				}
			}
		}
	})
}

// TestConv2DSpecialValuesMatchNaiveRefs holds both bodies to the
// references where IEEE special values decide the bits: an upstream
// gradient with −0 (which Go's != skips, like +0) and NaN (which it adds)
// entries, and x and w with ±Inf, −0 and NaN, so a skipped term added as
// ±0 instead of −0, a NaN gradient skipped, or a 0·Inf formed where the
// nest forms none would show. Every element must match bit for bit except
// a NaN's payload: which operand of a sum or product of two NaNs the
// compiled naive nest puts first is its register allocator's choice (the
// same statement compiles both ways in two loops), so, as for the GEMM
// engine, a NaN matches any NaN.
func TestConv2DSpecialValuesMatchNaiveRefs(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []convCase{
		{2, 3, 10, 10, 6, 3, 1, 1}, {2, 6, 10, 10, 12, 3, 2, 1}, {2, 12, 5, 5, 12, 3, 1, 1},
		{2, 6, 10, 10, 12, 1, 2, 0}, {1, 5, 6, 7, 13, 3, 1, 1}, {2, 13, 5, 6, 5, 3, 2, 1},
		{1, 2, 7, 13, 3, 3, 3, 1}, {2, 17, 4, 4, 17, 2, 1, 1},
	}
	forConvBodies(t, func(t *testing.T) {
		for i, cc := range cases {
			for _, special := range []string{"zeros", "nonfinite"} {
				rng := NewRNG(uint64(90 + i))
				x, w, bias, dout := convOperands(rng, cc, 0.3, false)
				for j := range dout.Data {
					switch u := rng.Float64(); {
					case dout.Data[j] == 0 && u < 0.5:
						dout.Data[j] = negZero
					case special == "nonfinite" && u < 0.02:
						dout.Data[j] = math.NaN()
					}
				}
				if special == "nonfinite" {
					for _, tt := range []*Tensor{x, w} {
						for j := range tt.Data {
							switch u := rng.Float64(); {
							case u < 0.02:
								tt.Data[j] = math.Inf(1)
							case u < 0.04:
								tt.Data[j] = math.Inf(-1)
							case u < 0.05:
								tt.Data[j] = math.NaN()
							case u < 0.06:
								tt.Data[j] = negZero
							}
						}
					}
				}
				label := fmt.Sprintf("%+v %s", cc, special)
				wantDx, wantDw, wantDb := conv2DBackwardNaiveRef(x, w, dout, cc.stride, cc.pad, true)
				for _, wk := range []int{1, 5} {
					out := Full(convCanary, x.Shape[0], cc.f, dout.Shape[2], dout.Shape[3])
					forShards(cc.n, wk, func(lo, hi int) { Conv2DPlanes(out, x, w, bias, cc.stride, cc.pad, lo, hi) })
					sameBitsAnyNaN(t, label+" forward", out, conv2DNaiveRef(x, w, bias, cc.stride, cc.pad))
					dx, dw, db := Full(convCanary, x.Shape...), Full(convCanary, w.Shape...), Full(convCanary, cc.f)
					forShards(cc.n, wk, func(lo, hi int) { Conv2DBackwardDxSamples(dx, x, w, dout, cc.stride, cc.pad, lo, hi) })
					forShards(cc.f, wk, func(lo, hi int) { Conv2DBackwardDwFilters(dw, db, x, dout, cc.stride, cc.pad, true, lo, hi) })
					sameBitsAnyNaN(t, label+" dx", dx, wantDx)
					sameBitsAnyNaN(t, label+" dw", dw, wantDw)
					sameBitsAnyNaN(t, label+" db", db, wantDb)
				}
			}
		}
	})
}

// sameBitsAnyNaN fails unless got and want hold the same bits, a NaN
// matching any NaN.
func sameBitsAnyNaN(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d is %v (%#x), want %v (%#x)", label, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestConv2DBackwardZeroGradientSkipsNonFinite pins the skip: where the
// upstream gradient is an exact zero, an Inf or NaN in w or x must not
// reach dx or dw (0·Inf would make a NaN of it). The planted values sit
// under all-zero planes and under single zeros in live rows.
func TestConv2DBackwardZeroGradientSkipsNonFinite(t *testing.T) {
	rng := NewRNG(71)
	for _, cc := range []convCase{{2, 3, 6, 6, 4, 3, 1, 1}, {2, 2, 7, 7, 3, 5, 2, 2}, {2, 2, 5, 5, 2, 1, 1, 0}, {2, 13, 5, 5, 13, 3, 1, 1}} {
		x, w, _, dout := convOperands(rng, cc, 0, false)
		// Filter 0 and sample 0 see only zero gradients, so their weights
		// and inputs may hold anything.
		ho, wo := dout.Shape[2], dout.Shape[3]
		for in := 0; in < cc.n; in++ {
			for of := 0; of < cc.f; of++ {
				if in == 0 || of == 0 {
					clear(dout.Data[(in*cc.f+of)*ho*wo:][:ho*wo])
				}
			}
		}
		filter, sample := cc.c*cc.k*cc.k, cc.c*cc.h*cc.w
		w.Data[0], w.Data[filter-1] = math.Inf(1), math.NaN()
		x.Data[0], x.Data[sample-1] = math.NaN(), math.Inf(-1)
		// One input element of the live sample too: zero exactly the
		// gradients whose windows cover it, in rows that stay live.
		iy, ix := cc.h/2, cc.w/2
		for oy := 0; oy < ho; oy++ {
			for ox := 0; ox < wo; ox++ {
				y0, x0 := oy*cc.stride-cc.pad, ox*cc.stride-cc.pad
				if y0 <= iy && iy < y0+cc.k && x0 <= ix && ix < x0+cc.k {
					for of := 0; of < cc.f; of++ {
						dout.Data[((cc.f+of)*ho+oy)*wo+ox] = 0
					}
				}
			}
		}
		x.Data[sample+iy*cc.w+ix] = math.Inf(1)
		forConvBodies(t, func(t *testing.T) {
			for _, wk := range serialAndWorkerCounts {
				withWorkers(t, wk, func() {
					label := fmt.Sprintf("%+v", cc)
					checkConvBackward(t, label, x, w, dout, cc.stride, cc.pad, true, wk)
					dx, dw, _ := Conv2DBackward(x, w, dout, cc.stride, cc.pad, true)
					for _, g := range []*Tensor{dx, dw} {
						for i, v := range g.Data {
							if math.IsNaN(v) || math.IsInf(v, 0) {
								t.Fatalf("%s: a zero gradient let a non-finite value through at element %d", label, i)
							}
						}
					}
				})
			}
		})
	}
}

// TestConvKernelStoreContract holds both bodies to what a run stores: each
// position's first r.lanes lanes, r.rStep apart, and nothing else. Runs
// are built by hand at both widths, every lane count and every kind; the
// result slots no lane addresses (between positions, and where a padding
// lane would land) hold a NaN canary that must survive. The first pass
// holds distinct positions; the second lists its last position twice and
// counts both (np = per), so that position is stored twice; the rest hold
// fewer distinct positions than their width (np < per, the rest repeating
// the last), which the AVX2 body runs on its narrower nests for the
// broadcast-first kind. The AVX2 body must give the portable body's bits.
func TestConvKernelStoreContract(t *testing.T) {
	canary := math.Float64frombits(0x7ff8_0000_dead_beef)
	const outer, n2 = 2, 2 // four terms a position, consecutive in b and v
	for _, width := range []int{8, 12} {
		per := convPer(width)
		rStep := per + 1       // position p's lane l is slot p + l·rStep; p = per is never addressed
		block := width * rStep // one pass's results
		rng := NewRNG(uint64(width))
		b := Randn(rng, 1, per+outer*n2).Data
		v := Randn(rng, 1, outer*n2*width).Data
		init := Randn(rng, 1, width).Data
		b[1], v[width+1] = 0, 0 // a zero broadcast and a zero lane for the zero kinds
		var passes []convPass
		for i, np := range []int{per, per, per - 1, 1}[:per+1] {
			ps := convPass{n1: 1, n2: n2, np: np}
			distinct := min(np, per-i%2) // pass 1 repeats its last position
			for p := range per {
				q := min(p, distinct-1)
				ps.in[p], ps.out[p] = q, i*block+q
			}
			passes = append(passes, ps)
		}
		for kind := convBcastFirst; kind <= convLaneZero; kind++ {
			for lanes := 1; lanes <= width; lanes++ {
				addressed := make(map[int]bool)
				for _, ps := range passes {
					for p := range per {
						for l := range lanes {
							addressed[ps.out[p]+l*rStep] = true
						}
					}
				}
				run := func(body func(*convRun)) []float64 {
					r := convRun{
						b: b, v: v, init: init, r: make([]float64, len(passes)*block), passes: passes,
						outer: outer, bStep: 1, vStep: width, rStep: rStep,
						lanes: lanes, width: width, kind: kind,
					}
					for i := range r.r {
						r.r[i] = canary
					}
					body(&r)
					return r.r
				}
				label := fmt.Sprintf("width %d, kind %d, %d lanes", width, kind, lanes)
				want := run(convPassesGo)
				for i, got := range want {
					if canaryKept := math.Float64bits(got) == math.Float64bits(canary); canaryKept == addressed[i] {
						t.Fatalf("%s, portable: slot %d is %v, addressed %v", label, i, got, addressed[i])
					}
				}
				if gemmUseAsm {
					for i, got := range run(convPassesAVX2) {
						if math.Float64bits(got) != math.Float64bits(want[i]) {
							t.Fatalf("%s: AVX2 slot %d is %v (%#x), portable %v (%#x), addressed %v",
								label, i, got, math.Float64bits(got), want[i], math.Float64bits(want[i]), addressed[i])
						}
					}
				}
			}
		}
	}
}

// TestConv2DRejectsMismatchedOperands is the entry-point validation: each
// class of operand mismatch panics at once with a "tensor: Conv2D..."
// message instead of indexing out of range deep in a kernel, failing
// inside New, or (a dout that happens to fit) returning wrong gradients.
func TestConv2DRejectsMismatchedOperands(t *testing.T) {
	x, w := New(2, 3, 8, 8), New(4, 3, 3, 3)
	dout := New(2, 4, 8, 8)
	for _, tc := range []struct {
		name string
		call func()
		want string
	}{
		{"forward rank", func() { Conv2D(New(3, 8, 8), w, nil, 1, 1) }, "Conv2D requires rank-4"},
		{"forward channels", func() { Conv2D(x, New(4, 2, 3, 3), nil, 1, 1) }, "Conv2D channel mismatch"},
		{"forward kernel exceeds input", func() { Conv2D(New(1, 3, 2, 2), w, nil, 1, 0) }, "Conv2D kernel exceeds"},
		{"forward zero stride", func() { Conv2D(x, w, nil, 0, 1) }, "Conv2D needs stride"},
		{"forward negative pad", func() { Conv2D(x, w, nil, 1, -1) }, "Conv2D needs stride"},
		// A longer bias read in bounds and its first F values were used.
		{"forward bias longer", func() { Conv2D(x, w, New(5), 1, 1) }, "Conv2D bias"},
		{"forward bias shorter", func() { Conv2D(x, w, New(3), 1, 1) }, "Conv2D bias"},
		{"backward x rank", func() { Conv2DBackward(New(3, 8, 8), w, dout, 1, 1, false) }, "Conv2DBackward requires rank-4"},
		{"backward w rank", func() { Conv2DBackward(x, New(4, 27), dout, 1, 1, false) }, "Conv2DBackward requires rank-4"},
		{"backward channels", func() { Conv2DBackward(x, New(4, 2, 3, 3), dout, 1, 1, false) }, "Conv2DBackward channel mismatch"},
		{"backward kernel exceeds input", func() { Conv2DBackward(New(2, 3, 1, 1), w, New(2, 4, 1, 1), 1, 0, false) }, "Conv2DBackward kernel exceeds"},
		{"backward dout rank", func() { Conv2DBackward(x, w, New(2, 4, 64), 1, 1, false) }, "upstream gradient shape mismatch"},
		{"backward dout batch", func() { Conv2DBackward(x, w, New(1, 4, 8, 8), 1, 1, false) }, "upstream gradient shape mismatch"},
		{"backward dout filters", func() { Conv2DBackward(x, w, New(2, 3, 8, 8), 1, 1, false) }, "upstream gradient shape mismatch"},
		// A 6x6 gradient fits inside the 8x8 one: before the check it
		// indexed in bounds and returned wrong numbers.
		{"backward dout smaller but fits", func() { Conv2DBackward(x, w, New(2, 4, 6, 6), 1, 1, false) }, "upstream gradient shape mismatch"},
		{"backward dout for another stride", func() { Conv2DBackward(x, w, dout, 2, 1, false) }, "upstream gradient shape mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tensor: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want a tensor: message containing %q", msg, tc.want)
				}
			}()
			tc.call()
		})
	}
}

// FuzzConv2DParity is the differential oracle for the convolution kernels:
// the fuzzer picks a geometry, a gradient sparsity and a data seed within
// small caps, and forward and backward must match the naive references
// bit for bit as one shard and as three. The seed corpus is the ResNet
// layer shapes and the edge shapes, so plain `go test` runs those;
// `make fuzz-smoke` explores beyond them.
func FuzzConv2DParity(f *testing.F) {
	for i, cc := range append(append(append([]convCase(nil), resnetConvCases...), edgeConvCases...), laneConvCases...) {
		f.Add(uint8(cc.n), uint8(cc.c), uint8(cc.h), uint8(cc.w), uint8(cc.f), uint8(cc.k),
			uint8(cc.stride), uint8(cc.pad), uint8(i%3*50), uint64(i))
	}
	f.Fuzz(func(t *testing.T, n, c, h, w, fo, k, stride, pad, sparsity uint8, seed uint64) {
		cc := convCase{
			n: 1 + int(n)%3, c: 1 + int(c)%24, h: 1 + int(h)%12, w: 1 + int(w)%12,
			f: 1 + int(fo)%24, k: 1 + int(k)%5, stride: 1 + int(stride)%3, pad: int(pad) % 7,
		}
		if !cc.fits() {
			t.Skip("kernel exceeds the padded input")
		}
		zeroFrac := float64(sparsity%101) / 100
		x, wt, bias, dout := convOperands(NewRNG(seed), cc, zeroFrac, sparsity >= 128)
		if seed%2 == 0 {
			bias = nil
		}
		label := fmt.Sprintf("%+v zeros=%.2f seed=%d", cc, zeroFrac, seed)
		forConvBodies(t, func(t *testing.T) {
			for _, shards := range []int{1, 3} {
				checkConvForward(t, label, x, wt, bias, cc.stride, cc.pad, shards)
				checkConvBackward(t, label, x, wt, dout, cc.stride, cc.pad, bias != nil, shards)
			}
		})
	})
}

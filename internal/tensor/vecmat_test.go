package tensor

import (
	"fmt"
	"math"
	"testing"
)

// vecMatRef is the definition, one column and one term at a time.
func vecMatRef(dst, a []float64, as int, x []float64, xs, terms int) {
	for c := range dst {
		s := 0.0
		for t := 0; t < terms; t++ {
			s += a[t*as] * x[t*xs+c]
		}
		dst[c] = s
	}
}

// TestVecMatBackendsMatchReferenceBits runs BOTH backends (the AVX2 kernel
// where the machine has it, and the portable kernel with it switched off)
// against the definition, bit for bit: every column count around the
// 12/8/4/1 pass boundaries, term counts from one up, unit and non-unit
// strides (a column of a [tq, tk] block; a column range of a [rows, d]
// matrix), and the shapes autograd.Attention runs at dh = 12, tk = 8, 9.
func TestVecMatBackendsMatchReferenceBits(t *testing.T) {
	check := func(backend string) {
		rng := NewRNG(31)
		for n := 1; n <= 30; n++ {
			for _, terms := range []int{1, 2, 8, 9, 12, 13} {
				for _, as := range []int{1, 9} {
					for _, xs := range []int{n, n + 5, 24} {
						if xs < n {
							continue
						}
						a := Randn(rng, 1, (terms-1)*as+1).Data
						x := Randn(rng, 1, (terms-1)*xs+n).Data
						// A signed zero, so 0 + (−0) = +0 is exercised.
						a[0], x[0] = math.Copysign(0, -1), 3
						got, want := make([]float64, n+1), make([]float64, n)
						got[n] = 77 // canary: the kernel writes n columns, no more
						VecMat(got[:n], a, as, x, xs, terms)
						vecMatRef(want, a, as, x, xs, terms)
						for c := range want {
							if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
								t.Fatalf("%s n=%d terms=%d as=%d xs=%d: dst[%d] = %v (%#x), want %v (%#x)",
									backend, n, terms, as, xs, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
							}
						}
						if got[n] != 77 {
							t.Fatalf("%s n=%d terms=%d: wrote past dst", backend, n, terms)
						}
					}
				}
			}
		}
	}
	if gemmUseAsm {
		check("avx2")
	}
	old := gemmUseAsm
	gemmUseAsm = false
	defer func() { gemmUseAsm = old }()
	check("portable")
}

func TestVecMatNoTermsZeroes(t *testing.T) {
	dst := []float64{1, 2, 3}
	VecMat(dst, nil, 1, nil, 3, 0)
	for _, v := range dst {
		if v != 0 {
			t.Fatalf("empty sum must be +0, got %v", dst)
		}
	}
}

// BenchmarkVecMat times both backends on the rows autograd.Attention runs
// at the default transformer's head width (dh = 12) and lengths (tk = 8,
// 9): out/dq rows are 12 wide over tk terms, score/dP rows tk wide over 12
// terms (a [12, tk] transposed block), dv/dk rows 12 wide over a strided
// column of a [tq, tk] block. BENCH_step.json holds the rows that admit
// the AVX2 kernel.
func BenchmarkVecMat(b *testing.B) {
	shapes := []struct {
		name             string
		n, terms, as, xs int
	}{
		{"out_n12_t8", 12, 8, 1, 24},
		{"out_n12_t9", 12, 9, 1, 24},
		{"score_n8_t12", 8, 12, 1, 8},
		{"score_n9_t12", 9, 12, 1, 9},
		{"dv_n12_t9_as9", 12, 9, 9, 24},
	}
	for _, backend := range []struct {
		name string
		asm  bool
	}{{"avx2", true}, {"portable", false}} {
		if backend.asm && !gemmUseAsm {
			continue
		}
		for _, sh := range shapes {
			b.Run(backend.name+"/"+sh.name, func(b *testing.B) {
				old := gemmUseAsm
				gemmUseAsm = backend.asm
				defer func() { gemmUseAsm = old }()
				rng := NewRNG(3)
				a := Randn(rng, 1, (sh.terms-1)*sh.as+1).Data
				x := Randn(rng, 1, (sh.terms-1)*sh.xs+sh.n).Data
				dst := make([]float64, sh.n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					VecMat(dst, a, sh.as, x, sh.xs, sh.terms)
				}
			})
		}
	}
}

// TestAddInPlaceKernelParity holds AddInPlace's AVX2 kernel to the portable
// loop bit for bit: every length across the 16/4/1 pass boundaries, at
// slice offsets that put dst and src at every alignment relative to a YMM
// lane, with signed zeros and a canary either side of dst.
func TestAddInPlaceKernelParity(t *testing.T) {
	if !gemmUseAsm {
		t.Skip("no AVX2 kernel on this machine; the portable loop is the only backend")
	}
	defer func() { gemmUseAsm = true }()
	rng := NewRNG(71)
	for n := 0; n <= 67; n++ {
		for do := 0; do < 4; do++ {
			for so := 0; so < 4; so++ {
				src := Randn(rng, 1, so+n).Data[so:]
				base := Randn(rng, 1, do+n+2)
				if n > 2 {
					src[0], base.Data[do+1] = math.Copysign(0, -1), math.Copysign(0, -1) // −0 + −0 = −0
					src[1], base.Data[do+2] = math.Copysign(0, -1), 0                    // +0 + −0 = +0
				}
				got, want := base.Clone(), base.Clone()
				gemmUseAsm = true
				AddVec(got.Data[do+1:do+1+n], src)
				gemmUseAsm = false
				AddVec(want.Data[do+1:do+1+n], src)
				// The whole buffers, so a write outside dst shows too.
				sameBits(t, fmt.Sprintf("AddVec n=%d dst+%d src+%d", n, do+1, so), 1, got, want)
				if n > 0 && got.Data[do+1] != base.Data[do+1]+src[0] {
					t.Fatalf("n=%d: first element %v, want %v", n, got.Data[do+1], base.Data[do+1]+src[0])
				}
			}
		}
	}
}

// BenchmarkAddInPlace times both backends at the gradient sizes the
// transformer tape adds (a [36,24] activation, a [24,48] weight) and one
// NCF microshard activation.
func BenchmarkAddInPlace(b *testing.B) {
	for _, backend := range []struct {
		name string
		asm  bool
	}{{"avx2", true}, {"portable", false}} {
		if backend.asm && !gemmUseAsm {
			continue
		}
		for _, n := range []int{40 * 16, 36 * 24, 24 * 48} {
			b.Run(fmt.Sprintf("%s/n%d", backend.name, n), func(b *testing.B) {
				old := gemmUseAsm
				gemmUseAsm = backend.asm
				defer func() { gemmUseAsm = old }()
				rng := NewRNG(5)
				dst, src := Randn(rng, 1, n), Randn(rng, 1e-9, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					dst.AddInPlace(src)
				}
			})
		}
	}
}

// TestScaleIntoKernelParity holds ScaleVec's AVX2 kernel (which ScaleInto
// and autograd.FlattenGradsScaled run through) to the portable loop bit for
// bit: every length across the 16/4/1 pass boundaries, dst and src at every
// alignment relative to a YMM lane, a canary either side of dst, and
// signed zeros, denormals and infinities in src.
func TestScaleIntoKernelParity(t *testing.T) {
	if !gemmUseAsm {
		t.Skip("no AVX2 kernel on this machine; the portable loop is the only backend")
	}
	defer func() { gemmUseAsm = true }()
	rng := NewRNG(73)
	for _, s := range []float64{0.125, -3.7, 1e-300, 0} {
		for n := 0; n <= 67; n++ {
			for do := 0; do < 4; do++ {
				for so := 0; so < 4; so++ {
					src := Randn(rng, 1, so+n).Data[so:]
					if n > 4 {
						src[0], src[1] = math.Copysign(0, -1), 5e-324
						src[2], src[n-1] = math.Inf(1), math.Inf(-1)
						src[3] = 3e-310
					}
					base := Randn(rng, 1, do+n+2)
					got, want := base.Clone(), base.Clone()
					gemmUseAsm = true
					ScaleVec(got.Data[do+1:do+1+n], src, s)
					gemmUseAsm = false
					ScaleVec(want.Data[do+1:do+1+n], src, s)
					sameBits(t, fmt.Sprintf("ScaleVec s=%v n=%d dst+%d src+%d", s, n, do+1, so), 1, got, want)
					if n > 6 && got.Data[do+1+5] != s*src[5] {
						t.Fatalf("s=%v n=%d: element 5 is %v, want %v", s, n, got.Data[do+1+5], s*src[5])
					}
				}
			}
		}
	}
}

// TestAdamKernelParity holds AdamUpdate's AVX2 kernel to its scalar loop
// bit for bit, parameter, first and second moment: every length across the
// four-lane boundary, the four slices at mixed alignments with a canary
// either side of each one written, the first step and the millionth, with
// and without weight decay, and in grad −0, denormals and
// infinities, plus an element whose moments and gradient are all zero so
// the update divides by sqrt(0) + eps.
func TestAdamKernelParity(t *testing.T) {
	if !gemmUseAsm {
		t.Skip("no AVX2 kernel on this machine; the scalar loop is the only backend")
	}
	defer func() { gemmUseAsm = true }()
	coef := func(step int, wd float64) *AdamCoef {
		const b1, b2 = 0.9, 0.999
		return &AdamCoef{
			WeightDecay: wd,
			Beta1:       b1, OneMinusBeta1: 1 - b1, Beta2: b2, OneMinusBeta2: 1 - b2,
			BiasCorr1: 1 - math.Pow(b1, float64(step)), BiasCorr2: 1 - math.Pow(b2, float64(step)),
			LR: 1e-3, Eps: 1e-8,
		}
	}
	rng := NewRNG(79)
	for ci, c := range []*AdamCoef{coef(1, 0), coef(1e6, 0.01), coef(7, 1e-4)} {
		for n := 0; n <= 67; n++ {
			for vo := 0; vo < 4; vo++ {
				for gro := 0; gro < 4; gro++ {
					mo, so := (vo+gro)%4, (vo+2*gro+1)%4
					grad := Randn(rng, 1, gro+n).Data[gro:]
					val, m, v := Randn(rng, 1, vo+n+2), Randn(rng, 0.1, mo+n+2), Randn(rng, 0.1, so+n+2)
					for i := range v.Data {
						v.Data[i] *= v.Data[i] // a second moment is never negative
					}
					if n > 6 {
						grad[0], grad[1], grad[2] = math.Copysign(0, -1), 5e-324, 3e-310
						grad[3], grad[n-1] = math.Inf(1), math.Inf(-1)
						grad[4], val.Data[vo+1+4], m.Data[mo+1+4], v.Data[so+1+4] = 0, 0, 0, 0
						m.Data[mo+1+5], v.Data[so+1+5] = 0, 0
					}
					run := func(asm bool) [3]*Tensor {
						out := [3]*Tensor{val.Clone(), m.Clone(), v.Clone()}
						gemmUseAsm = asm
						AdamUpdate(out[0].Data[vo+1:vo+1+n], grad, out[1].Data[mo+1:mo+1+n], out[2].Data[so+1:so+1+n], c)
						return out
					}
					got, want := run(true), run(false)
					for k, name := range []string{"val", "m", "v"} {
						// The whole buffers, so a write outside a slice shows too.
						sameBits(t, fmt.Sprintf("AdamUpdate coef %d n=%d val+%d grad+%d: %s", ci, n, vo+1, gro, name), 1, got[k], want[k])
					}
					if n > 6 && got[0].Data[vo+1+4] != 0 {
						t.Fatalf("coef %d n=%d: the all-zero element moved to %v", ci, n, got[0].Data[vo+1+4])
					}
				}
			}
		}
	}
}

// reluRef, reluBackRef and mulAddRef are the loops autograd's ReLU and Mul
// ran before they had kernels, kept as the oracle: the forward one call
// per element of a function that branches on the sign, the backward a
// branch on the saved input, the Hadamard backward a multiply then an add.
func reluRef(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

func reluBackRef(g, og, x []float64) {
	for i := range g {
		if x[i] > 0 {
			g[i] += og[i]
		}
	}
}

func mulAddRef(dst, a, b []float64) {
	for i := range dst {
		dst[i] += a[i] * b[i]
	}
}

// elementwiseSpecials are the values the elementwise kernels must carry
// through exactly: both zeros, both infinities, quiet NaNs of either sign
// with a payload, subnormals of either sign, and the smallest normal.
var elementwiseSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff8_0000_0bad_f00d),
	5e-324, -5e-324, 3e-310, -3e-310, 2.2250738585072014e-308,
}

// elementwiseSizes are n = 0…17 (every tail length either side of the
// 16-wide and 4-wide passes) plus the shapes the models run: an NCF
// microbatch's [40,8] and [40,16] activations and the transformer's
// [36,48] feed-forward activation.
func elementwiseSizes() []int {
	var ns []int
	for n := 0; n <= 17; n++ {
		ns = append(ns, n)
	}
	return append(ns, 40*8, 40*16, 36*48)
}

// specialOrRandn fills s with standard normals and puts a special value on
// about one element in three.
func specialOrRandn(rng *RNG, s []float64) {
	for i := range s {
		s[i] = rng.Norm()
		if rng.Intn(3) == 0 {
			s[i] = elementwiseSpecials[rng.Intn(len(elementwiseSpecials))]
		}
	}
}

// forBothBackends runs check on the AVX2 kernels where the machine has
// them and on the portable loops with them switched off, the way
// TestVecMatBackendsMatchReferenceBits does.
func forBothBackends(check func(backend string)) {
	if gemmUseAsm {
		check("avx2")
	}
	old := gemmUseAsm
	gemmUseAsm = false
	defer func() { gemmUseAsm = old }()
	check("portable")
}

// TestReLUKernelParity holds ReLUVec and ReLUBackVec, on both backends, to
// the branching loops they replaced, bit for bit: every size in
// elementwiseSizes, inputs full of signed zeros, infinities, NaNs with
// payloads and subnormals, gradient buffers that already hold −0 and NaN
// in masked lanes (a blend must store them back untouched), and a canary
// either side of every slice written.
func TestReLUKernelParity(t *testing.T) {
	forBothBackends(func(backend string) {
		rng := NewRNG(83)
		for _, n := range elementwiseSizes() {
			x := make([]float64, n)
			specialOrRandn(rng, x)

			fwd, want := make([]float64, n+2), make([]float64, n+2)
			fwd[0], fwd[n+1] = 77, 78
			copy(want, fwd)
			ReLUVec(fwd[1:n+1], x)
			for i, v := range x {
				want[1+i] = reluRef(v)
			}
			sameBitsOf(t, fmt.Sprintf("%s ReLUVec n=%d", backend, n), fwd, want)

			g, og := make([]float64, n+2), make([]float64, n)
			for i := range g {
				g[i] = rng.Norm()
			}
			g[0], g[n+1] = 77, 78
			for i := range og {
				og[i] = rng.Norm()
				switch masked := !(x[i] > 0); {
				case masked && i%3 == 0:
					g[1+i] = math.Copysign(0, -1)
				case masked && i%3 == 1:
					g[1+i] = elementwiseSpecials[4]
				case !masked && i%5 == 0:
					og[i] = elementwiseSpecials[5] // one NaN operand a lane
				case !masked && i%5 == 1:
					og[i] = math.Copysign(0, -1)
				}
			}
			got, ref := append([]float64(nil), g...), append([]float64(nil), g...)
			ReLUBackVec(got[1:n+1], og, x)
			reluBackRef(ref[1:n+1], og, x)
			sameBitsOf(t, fmt.Sprintf("%s ReLUBackVec n=%d", backend, n), got, ref)
			for i := range x {
				if !(x[i] > 0) && math.Float64bits(got[1+i]) != math.Float64bits(g[1+i]) {
					t.Fatalf("%s n=%d: masked lane %d moved from %#x to %#x", backend, n, i, math.Float64bits(g[1+i]), math.Float64bits(got[1+i]))
				}
			}
		}
	})
}

// TestMulAddVecKernelParity holds MulAddVec, on both backends, to the
// multiply-then-add loop bit for bit: every size in elementwiseSizes, the
// special values in one operand of a lane at a time (so no lane adds or
// multiplies two NaNs, whose payload order the ISA leaves to the operand
// slots), and a canary either side of dst.
func TestMulAddVecKernelParity(t *testing.T) {
	forBothBackends(func(backend string) {
		rng := NewRNG(89)
		for _, n := range elementwiseSizes() {
			dst, a, b := make([]float64, n+2), make([]float64, n), make([]float64, n)
			for i := range dst {
				dst[i] = rng.Norm()
			}
			dst[0], dst[n+1] = 77, 78
			for i := range a {
				a[i], b[i] = rng.Norm(), rng.Norm()
				if rng.Intn(2) == 0 {
					s := elementwiseSpecials[rng.Intn(len(elementwiseSpecials))]
					switch rng.Intn(3) {
					case 0:
						dst[1+i] = s
					case 1:
						a[i] = s
					default:
						b[i] = s
					}
				}
			}
			got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
			MulAddVec(got[1:n+1], a, b)
			mulAddRef(want[1:n+1], a, b)
			sameBitsOf(t, fmt.Sprintf("%s MulAddVec n=%d", backend, n), got, want)
		}
	})
}

// BenchmarkReLU times the ReLU forward and backward at the activation
// sizes the models run (an NCF microbatch's [40,8] and [40,16], the
// transformer's [36,48] feed-forward) on the AVX2 kernel, the branch-free
// portable loop, and the loops they replaced (`oracle`: the forward
// through ApplyInto, one indirect call per element, the backward a branch
// on the saved input). The inputs are standard normals, half of them
// negative, and an iteration takes the next of 64 input sets, as a
// training step sees new activations every time: the branch predictor
// learns the signs of one fixed set, and of eight sets at n ≤ 640, and
// then the oracle reads 4-5x faster than it runs in a step.
// BENCH_step.json and BENCH_engine.json hold the rows that admit the AVX2
// bodies.
func BenchmarkReLU(b *testing.B) {
	const sets = 64
	for _, backend := range []string{"avx2", "portable", "oracle"} {
		if backend == "avx2" && !gemmUseAsm {
			continue
		}
		for _, n := range []int{40 * 8, 40 * 16, 36 * 48} {
			rng := NewRNG(7)
			var xs [sets]*Tensor
			for k := range xs {
				xs[k] = Randn(rng, 1, n)
			}
			og, g, y := Randn(rng, 1, n).Data, Randn(rng, 1, n).Data, New(n)
			run := func(name string, fn func(x *Tensor)) {
				b.Run(fmt.Sprintf("%s/%s/n%d", backend, name, n), func(b *testing.B) {
					old := gemmUseAsm
					gemmUseAsm = backend == "avx2"
					defer func() { gemmUseAsm = old }()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fn(xs[i%sets])
					}
				})
			}
			if backend == "oracle" {
				run("forward", func(x *Tensor) { ApplyInto(y, x, reluRef) })
				run("backward", func(x *Tensor) { reluBackRef(g, og, x.Data) })
				continue
			}
			run("forward", func(x *Tensor) { ReLUVec(y.Data, x.Data) })
			run("backward", func(x *Tensor) { ReLUBackVec(g, og, x.Data) })
		}
	}
}

// BenchmarkMulAddVec times the Hadamard backward at NCF's [40,8] GMF
// product and at [40,16], on the AVX2 kernel and the portable loop.
func BenchmarkMulAddVec(b *testing.B) {
	for _, backend := range []string{"avx2", "portable"} {
		if backend == "avx2" && !gemmUseAsm {
			continue
		}
		for _, n := range []int{40 * 8, 40 * 16} {
			b.Run(fmt.Sprintf("%s/n%d", backend, n), func(b *testing.B) {
				old := gemmUseAsm
				gemmUseAsm = backend == "avx2"
				defer func() { gemmUseAsm = old }()
				rng := NewRNG(11)
				dst, x, y := Randn(rng, 1, n).Data, Randn(rng, 1e-9, n).Data, Randn(rng, 1, n).Data
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MulAddVec(dst, x, y)
				}
			})
		}
	}
}

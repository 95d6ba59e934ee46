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
// and without weight decay and a loss scale, and in grad −0, denormals and
// infinities, plus an element whose moments and gradient are all zero so
// the update divides by sqrt(0) + eps.
func TestAdamKernelParity(t *testing.T) {
	if !gemmUseAsm {
		t.Skip("no AVX2 kernel on this machine; the scalar loop is the only backend")
	}
	defer func() { gemmUseAsm = true }()
	coef := func(step int, wd, invScale float64) *AdamCoef {
		const b1, b2 = 0.9, 0.999
		return &AdamCoef{
			InvScale: invScale, WeightDecay: wd,
			Beta1: b1, OneMinusBeta1: 1 - b1, Beta2: b2, OneMinusBeta2: 1 - b2,
			BiasCorr1: 1 - math.Pow(b1, float64(step)), BiasCorr2: 1 - math.Pow(b2, float64(step)),
			LR: 1e-3, Eps: 1e-8,
		}
	}
	rng := NewRNG(79)
	for ci, c := range []*AdamCoef{coef(1, 0, 1), coef(1e6, 0.01, 1.0/1024), coef(7, 1e-4, 1)} {
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

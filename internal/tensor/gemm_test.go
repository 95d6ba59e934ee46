package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
)

// naiveRef computes the [n,m] product with the retained naive reference
// kernels over the full row range — the bit-identity oracle the blocked
// engine is held to.
func naiveRef(v gemmVariant, a, b *Tensor) *Tensor {
	var n, m int
	switch v {
	case gemmNN:
		n, m = a.Shape[0], b.Shape[1]
	case gemmTA:
		n, m = a.Shape[1], b.Shape[1]
	default:
		n, m = a.Shape[0], b.Shape[0]
	}
	c := New(n, m)
	gemmNaiveRows(v, c, a, b, 0, n)
	return c
}

// engineCall runs the public entry point for a variant.
func engineCall(v gemmVariant, a, b *Tensor) *Tensor {
	switch v {
	case gemmNN:
		return MatMul(a, b)
	case gemmTA:
		return MatMulTransA(a, b)
	default:
		return MatMulTransB(a, b)
	}
}

// operands builds the two operands of a variant for logical dims (n,k,m),
// with a mix of signs, magnitudes, exact zeros (~20%), and negative zeros
// (~5%) so the no-skip accumulation semantics are exercised.
func operands(v gemmVariant, rng *RNG, n, k, m int) (*Tensor, *Tensor) {
	var a, b *Tensor
	switch v {
	case gemmNN:
		a, b = Randn(rng, 1, n, k), Randn(rng, 1, k, m)
	case gemmTA:
		a, b = Randn(rng, 1, k, n), Randn(rng, 1, k, m)
	default:
		a, b = Randn(rng, 1, n, k), Randn(rng, 1, m, k)
	}
	for _, t := range []*Tensor{a, b} {
		for i := range t.Data {
			switch r := rng.Float64(); {
			case r < 0.20:
				t.Data[i] = 0
			case r < 0.25:
				t.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return a, b
}

var gemmVariants = []struct {
	name string
	v    gemmVariant
}{
	{"NN", gemmNN}, {"TransA", gemmTA}, {"TransB", gemmTB},
}

// gemmParityShapes are the adversarial (n, k, m) triples: empty and unit
// dims, the register-tile (4, 8), L2-block (64), and k-panel (256)
// boundaries ±1, odd primes, and the skinny/short/square regimes.
var gemmParityShapes = [][3]int{
	{0, 5, 7}, {5, 0, 7}, {5, 7, 0}, {1, 1, 1},
	{3, 5, 7}, {4, 8, 8}, {5, 9, 9}, {7, 13, 11},
	{8, 16, 8}, {9, 17, 7}, {13, 29, 23},
	{31, 31, 31}, {32, 32, 32}, {33, 33, 33},
	{63, 64, 65}, {65, 64, 63}, {64, 64, 64},
	{16, 255, 16}, {16, 256, 16}, {16, 257, 16},
	{128, 8, 8}, {256, 16, 4}, // tall-skinny
	{4, 16, 256}, {8, 8, 128}, // short-wide
	{1, 64, 64}, {64, 1, 64}, {64, 64, 1},
}

// TestGEMMParityExhaustive holds the blocked engine bit-identical to the
// naive reference across adversarial shapes, all three transpose
// variants, and worker counts {1, 2, 4, 8}.
func TestGEMMParityExhaustive(t *testing.T) {
	for _, vc := range gemmVariants {
		rng := NewRNG(41)
		for _, sh := range gemmParityShapes {
			n, k, m := sh[0], sh[1], sh[2]
			a, b := operands(vc.v, rng, n, k, m)
			want := naiveRef(vc.v, a, b)
			for _, w := range []int{1, 2, 4, 8} {
				withWorkers(t, w, func() {
					got := engineCall(vc.v, a, b)
					sameBits(t, vc.name, w, got, want)
				})
			}
		}
	}
}

// TestGEMMTileForcedPacked drives gemmTile directly — bypassing the
// small-shape dispatch to the naive kernels — so the packed path and its
// edge micro-kernels are exercised at dims the dispatcher would never
// send them (0/1/partial tiles in every position), including arbitrary
// interior tiles of a larger output.
func TestGEMMTileForcedPacked(t *testing.T) {
	for _, vc := range gemmVariants {
		rng := NewRNG(43)
		for _, sh := range [][3]int{
			{1, 1, 1}, {1, 3, 9}, {2, 5, 8}, {3, 2, 7}, {4, 1, 8},
			{5, 300, 11}, {6, 17, 19}, {11, 23, 29}, {4, 8, 8},
		} {
			n, k, m := sh[0], sh[1], sh[2]
			a, b := operands(vc.v, rng, n, k, m)
			want := naiveRef(vc.v, a, b)
			got := New(n, m)
			gemmTile(vc.v, got, a, b, k, 0, n, 0, m)
			sameBits(t, vc.name+"/forced", 1, got, want)

			// An interior tile must reproduce exactly its rectangle and
			// leave the rest of the output untouched.
			if n >= 3 && m >= 3 {
				part := New(n, m)
				part.Fill(math.Pi)
				r0, r1, c0, c1 := 1, n-1, 1, m-1
				gemmTile(vc.v, part, a, b, k, r0, r1, c0, c1)
				for i := 0; i < n; i++ {
					for j := 0; j < m; j++ {
						in := i >= r0 && i < r1 && j >= c0 && j < c1
						want1 := math.Pi
						if in {
							want1 = want.Data[i*m+j]
						}
						if math.Float64bits(part.Data[i*m+j]) != math.Float64bits(want1) {
							t.Fatalf("%s tile [%d:%d)x[%d:%d) elem (%d,%d): got %v want %v",
								vc.name, r0, r1, c0, c1, i, j, part.Data[i*m+j], want1)
						}
					}
				}
			}
		}
	}
}

// TestGEMMPortableKernelParity pins the portable Go micro-kernel to the
// same bits as the naive reference (and, transitively, the AVX2 kernel,
// which the other tests cover when it is active). On machines where the
// assembly kernel is enabled this flips it off for the duration.
func TestGEMMPortableKernelParity(t *testing.T) {
	old := gemmUseAsm
	gemmUseAsm = false
	defer func() { gemmUseAsm = old }()
	for _, vc := range gemmVariants {
		rng := NewRNG(47)
		for _, sh := range [][3]int{{64, 64, 64}, {33, 257, 41}, {128, 16, 24}} {
			n, k, m := sh[0], sh[1], sh[2]
			a, b := operands(vc.v, rng, n, k, m)
			want := naiveRef(vc.v, a, b)
			got := New(n, m)
			gemmTile(vc.v, got, a, b, k, 0, n, 0, m)
			sameBits(t, vc.name+"/portable", 1, got, want)
		}
	}
}

// TestGEMMNonFiniteSemantics is the regression test for the zero-skip
// bug: the old kernels skipped a == 0 terms, so 0·Inf and 0·NaN terms
// from the other operand were silently dropped. The documented semantics
// now: every term is computed, so NaN/Inf propagate per IEEE 754, and
// signed zeros follow from ordinary accumulation — on both the naive
// reference and the blocked engine, bit for bit.
func TestGEMMNonFiniteSemantics(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()

	// Row [0, 1] against columns with Inf/NaN in the position the zero
	// hits: 0·Inf = NaN and 0·NaN = NaN must reach the output.
	a := FromSlice([]float64{0, 1}, 1, 2)
	b := FromSlice([]float64{
		inf, nan, 5,
		2, 3, inf,
	}, 2, 3)
	c := MatMul(a, b)
	if !math.IsNaN(c.Data[0]) || !math.IsNaN(c.Data[1]) {
		t.Fatalf("0·Inf / 0·NaN terms must propagate NaN, got %v", c.Data)
	}
	if !math.IsInf(c.Data[2], 1) {
		t.Fatalf("1·Inf must stay +Inf, got %v", c.Data[2])
	}

	// The old skip could also flip signed zeros; the defined semantics
	// accumulate every ±0 term. -1·0 + 0·5 = (+0 + -0) + +0 = +0.
	a2 := FromSlice([]float64{-1, 0}, 1, 2)
	b2 := FromSlice([]float64{0, 5}, 2, 1)
	c2 := MatMul(a2, b2)
	if math.Signbit(c2.Data[0]) || c2.Data[0] != 0 {
		t.Fatalf("±0 accumulation must yield +0, got %v", c2.Data[0])
	}

	// Engine and naive reference must agree on non-finite inputs too: the
	// same elements NaN, every other element bit-identical (±Inf signs
	// included). NaN payloads are compared only for NaN-ness — IEEE 754
	// leaves payload propagation to the implementation, and the compiled
	// scalar kernels and the AVX2 kernel may pick different source NaNs.
	rng := NewRNG(53)
	for _, vc := range gemmVariants {
		x, y := operands(vc.v, rng, 48, 96, 40)
		x.Data[7], x.Data[95] = inf, nan
		y.Data[3], y.Data[64] = math.Inf(-1), nan
		want := naiveRef(vc.v, x, y)
		got := engineCall(vc.v, x, y)
		for i := range want.Data {
			if math.IsNaN(want.Data[i]) {
				if !math.IsNaN(got.Data[i]) {
					t.Fatalf("%s non-finite elem %d: engine %v, naive NaN", vc.name, i, got.Data[i])
				}
				continue
			}
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s non-finite elem %d: engine %v (bits %x) vs naive %v (bits %x)",
					vc.name, i, got.Data[i], math.Float64bits(got.Data[i]),
					want.Data[i], math.Float64bits(want.Data[i]))
			}
		}
	}
}

// TestMatMulIntoAllocFree asserts the warm steady-state contract of the
// engine's Into entry points at 1 worker: the pack buffers come from the
// arena and the serial dispatch builds no closures, so a warm call
// performs zero heap allocations on both the packed and the small-shape
// naive paths.
func TestMatMulIntoAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	rng := NewRNG(59)
	for _, sh := range [][3]int{{64, 64, 64}, {8, 8, 8}} {
		n, k, m := sh[0], sh[1], sh[2]
		a := Randn(rng, 1, n, k)
		b := Randn(rng, 1, k, m)
		ta := Randn(rng, 1, k, n)
		tb := Randn(rng, 1, m, k)
		c := New(n, m)
		MatMulInto(c, a, b) // warm the pack-buffer pool
		if allocs := testing.AllocsPerRun(20, func() {
			MatMulInto(c, a, b)
			MatMulTransAInto(c, ta, b)
			MatMulTransBInto(c, a, tb)
		}); allocs != 0 {
			t.Errorf("warm MatMul*Into at shape %v allocates %v per run, want 0", sh, allocs)
		}
	}
}

// gemmModelShapes are the (variant, n, k, m) products the three model
// families run (forward, dX, dW), and the shapes either side of each of
// gemmInto's dispatch lines: FuzzGEMMParity's seed corpus.
var gemmModelShapes = []struct {
	v       gemmVariant
	n, k, m int
}{
	// Transformer, d 24, ff 48, 32 and 36 rows a microbatch.
	{gemmNN, 32, 24, 24}, {gemmTB, 32, 24, 24}, {gemmTA, 24, 32, 24},
	{gemmNN, 36, 24, 24}, {gemmTB, 36, 24, 24}, {gemmTA, 24, 36, 24},
	{gemmNN, 32, 24, 48}, {gemmTB, 32, 48, 24}, {gemmTA, 24, 32, 48},
	{gemmNN, 36, 24, 48}, {gemmTB, 36, 48, 24}, {gemmTA, 24, 36, 48},
	{gemmNN, 32, 48, 24}, {gemmTB, 32, 24, 48}, {gemmTA, 48, 32, 24},
	{gemmNN, 36, 48, 24}, {gemmTB, 36, 24, 48}, {gemmTA, 48, 36, 24},
	// NCF, a 40-row microshard through 16→16→8→1; serving batches.
	{gemmNN, 40, 16, 16}, {gemmTB, 40, 16, 16}, {gemmTA, 16, 40, 16},
	{gemmNN, 40, 16, 8}, {gemmTB, 40, 8, 16}, {gemmTA, 16, 40, 8},
	{gemmNN, 40, 16, 1}, {gemmTB, 40, 1, 16}, {gemmTA, 16, 40, 1},
	{gemmNN, 1, 16, 16}, {gemmNN, 4, 16, 8}, {gemmNN, 8, 16, 16}, {gemmNN, 8, 16, 1},
	{gemmNN, 96, 16, 16}, // 100 rows in serving, past this fuzzer's cap
	// ResNet's classifier.
	{gemmNN, 32, 12, 8}, {gemmTB, 32, 8, 12}, {gemmTA, 12, 32, 8}, {gemmNN, 64, 12, 8},
	// gemmMinAlignedWork (512): 8×4×8 naive, 8×8×8 engine.
	{gemmNN, 8, 4, 8}, {gemmNN, 8, 8, 8}, {gemmTA, 8, 8, 8}, {gemmTB, 8, 8, 8},
	// gemmMinWork (8192) for partial tiles: 20³ naive, 21×20×20 engine.
	{gemmNN, 20, 20, 20}, {gemmNN, 21, 20, 20}, {gemmTA, 21, 20, 20}, {gemmTB, 21, 20, 20},
	// gemmDirectMaxElems (4096): 40×24×48 holds 4032, 48×24×48 holds 4608.
	{gemmNN, 40, 24, 48}, {gemmNN, 48, 24, 48}, {gemmTA, 48, 24, 48}, {gemmTB, 48, 24, 48},
}

// FuzzGEMMParity is the differential oracle for the GEMM engine: for any
// product up to 96 a side, any variant, and operands salted with zeros,
// negative zeros and denormals, the naive kernels, the packed engine
// (forced), the pack-free run (forced, where the output is whole tiles)
// and whatever gemmInto dispatches to produce the same bits, on the AVX2
// micro-kernel and on the portable one. Plain `go test` runs the seed
// corpus, which is gemmModelShapes; `make gemm-fuzz-smoke` explores.
func FuzzGEMMParity(f *testing.F) {
	for i, sh := range gemmModelShapes {
		f.Add(uint8(sh.v), uint8(sh.n), uint8(sh.k), uint8(sh.m), uint64(i))
	}
	f.Fuzz(func(t *testing.T, variant, nn, kk, mm uint8, seed uint64) {
		v := gemmVariant(variant % 3)
		n, k, m := int(nn)%97, int(kk)%97, int(mm)%97
		rng := NewRNG(seed)
		a, b := operands(v, rng, n, k, m)
		for _, op := range []*Tensor{a, b} {
			for i := range op.Data {
				if rng.Float64() < 0.05 {
					op.Data[i] *= 1e-310 // a denormal, or an underflow to ±0
				}
			}
		}
		want := naiveRef(v, a, b)
		haveAsm := gemmUseAsm
		defer func() { gemmUseAsm = haveAsm }()
		for _, asm := range []bool{true, false} {
			if asm && !haveAsm {
				continue
			}
			gemmUseAsm = asm
			label := fmt.Sprintf("%s %dx%dx%d seed=%d asm=%v", gemmVariants[v].name, n, k, m, seed, asm)
			got := New(n, m)
			got.Fill(math.Pi)
			gemmInto(v, got, a, b, n, k, m)
			sameBits(t, label+" dispatch", 1, got, want)
			if n*m == 0 {
				continue
			}
			got.Fill(math.Pi)
			gemmTile(v, got, a, b, k, 0, n, 0, m)
			sameBits(t, label+" packed", 1, got, want)
			if k > 0 && n%gemmMR == 0 && m%gemmNR == 0 {
				got.Fill(math.Pi)
				gemmDirectTiles(v, got, a, b, n, k, m)
				sameBits(t, label+" direct", 1, got, want)
			}
		}
	})
}

package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/parallel"
)

// The GEMM harness is generic over the element type, like the engine: each
// Test* below runs its body once as subtest f64 and once as f32, with the
// type's own register tile (4×8, 8×8) deciding where the boundary shapes
// sit. The reduced-precision regimes keep the full determinism contract;
// they just are not bit-equal to float64.

// bothTypes runs a generic test body as subtests f64 and f32.
func bothTypes(t *testing.T, f64, f32 func(*testing.T)) {
	t.Run("f64", f64)
	t.Run("f32", f32)
}

// packOf returns T's pack-buffer pool.
func packOf[T arena.Elem]() *arena.PoolOf[T] {
	var p any = gemmPack
	if _, f32 := any(T(0)).(float32); f32 {
		p = gemmPack32
	}
	return p.(*arena.PoolOf[T])
}

// storedShapes returns the shapes a and b are stored in for a variant.
func storedShapes(v gemmVariant, n, k, m int) (a, b []int) {
	switch v {
	case gemmTA:
		return []int{k, n}, []int{k, m}
	case gemmTB:
		return []int{n, k}, []int{m, k}
	}
	return []int{n, k}, []int{k, m}
}

// publicInto binds T's exported *Into entry point for a variant to the
// three matrices, wrapped once in the public type (*Tensor or *F32) so the
// returned call itself builds nothing.
func publicInto[T arena.Elem](v gemmVariant, c, a, b []T, cs, as, bs []int) func() {
	if cd, ok := any(c).([]float64); ok {
		tc := &Tensor{Shape: cs, Data: cd}
		ta := &Tensor{Shape: as, Data: any(a).([]float64)}
		tb := &Tensor{Shape: bs, Data: any(b).([]float64)}
		f := [...]func(c, a, b *Tensor){MatMulInto, MatMulTransAInto, MatMulTransBInto}[v]
		return func() { f(tc, ta, tb) }
	}
	tc := &F32{Shape: cs, Data: any(c).([]float32)}
	ta := &F32{Shape: as, Data: any(a).([]float32)}
	tb := &F32{Shape: bs, Data: any(b).([]float32)}
	f := [...]func(c, a, b *F32){MatMulF32Into, MatMulF32TransAInto, MatMulF32TransBInto}[v]
	return func() { f(tc, ta, tb) }
}

// engineCall runs the public entry point for a variant on dense operands.
func engineCall[T arena.Elem](v gemmVariant, a, b []T, n, k, m int) []T {
	c := make([]T, n*m)
	as, bs := storedShapes(v, n, k, m)
	publicInto(v, c, a, b, []int{n, m}, as, bs)()
	return c
}

// naiveRef computes the [n,m] product with the retained naive reference
// kernels over the full row range — the bit-identity oracle the blocked
// engine is held to.
func naiveRef[T arena.Elem](v gemmVariant, a, b []T, n, k, m int) []T {
	c := make([]T, n*m)
	gemmNaiveRows(v, c, a, b, n, k, m, 0, n)
	return c
}

// operands builds the two operands of a variant for logical dims (n,k,m),
// with a mix of signs, magnitudes, exact zeros (~20%), and negative zeros
// (~5%) so the no-skip accumulation semantics are exercised. The values
// are drawn in float64 and narrowed to T.
func operands[T arena.Elem](rng *RNG, n, k, m int) (a, b []T) {
	a, b = make([]T, n*k), make([]T, k*m)
	for _, d := range [][]T{a, b} {
		for i := range d {
			d[i] = T(rng.Norm())
		}
	}
	for _, d := range [][]T{a, b} {
		for i := range d {
			switch r := rng.Float64(); {
			case r < 0.20:
				d[i] = 0
			case r < 0.25:
				d[i] = T(math.Copysign(0, -1))
			}
		}
	}
	return a, b
}

// filled returns an n-element matrix holding x everywhere, so a test can
// tell the elements a kernel wrote from the ones it must leave alone.
func filled[T arena.Elem](n int, x T) []T {
	d := make([]T, n)
	for i := range d {
		d[i] = x
	}
	return d
}

// bitsOf is x's bit pattern, widened: float32 → float64 is exact and
// one-to-one on every non-NaN value, signed zeros included.
func bitsOf[T arena.Elem](x T) uint64 { return math.Float64bits(float64(x)) }

// sameBitsOf fails unless got and want are bitwise-identical.
func sameBitsOf[T arena.Elem](t *testing.T, label string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: size %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v (naive)", label, i, got[i], want[i])
		}
	}
}

var gemmVariants = []struct {
	name string
	v    gemmVariant
}{
	{"NN", gemmNN}, {"TransA", gemmTA}, {"TransB", gemmTB},
}

// gemmParityShapes are the adversarial (n, k, m) triples for an mr×8
// register tile: empty and unit dims, the register-tile, L2-block (64) and
// k-panel (256) boundaries ±1, odd primes, and the skinny/short/square
// regimes.
func gemmParityShapes(mr int) [][3]int {
	return [][3]int{
		{0, 5, 7}, {5, 0, 7}, {5, 7, 0}, {1, 1, 1},
		{3, 5, 7}, {mr - 1, 9, 9}, {mr, 8, 8}, {mr + 1, 9, 9}, {7, 13, 11},
		{8, 16, 8}, {9, 17, 7}, {13, 29, 23},
		{31, 31, 31}, {32, 32, 32}, {33, 33, 33},
		{63, 64, 65}, {65, 64, 63}, {64, 64, 64},
		{16, 255, 16}, {16, 256, 16}, {16, 257, 16},
		{128, 8, 8}, {256, 16, 4}, // tall-skinny
		{4, 16, 256}, {8, 8, 128}, // short-wide
		{1, 64, 64}, {64, 1, 64}, {64, 64, 1},
	}
}

// TestGEMMParityExhaustive holds the blocked engine bit-identical to the
// naive reference across adversarial shapes, all three transpose
// variants, and worker counts {1, 2, 4, 8}.
func TestGEMMParityExhaustive(t *testing.T) {
	bothTypes(t, gemmParityExhaustive[float64], gemmParityExhaustive[float32])
}

func gemmParityExhaustive[T arena.Elem](t *testing.T) {
	for _, vc := range gemmVariants {
		rng := NewRNG(41)
		for _, sh := range gemmParityShapes(gemmMR[T]()) {
			n, k, m := sh[0], sh[1], sh[2]
			a, b := operands[T](rng, n, k, m)
			want := naiveRef(vc.v, a, b, n, k, m)
			for _, w := range []int{1, 2, 4, 8} {
				withWorkers(t, w, func() {
					got := engineCall(vc.v, a, b, n, k, m)
					sameBitsOf(t, fmt.Sprintf("%s %v workers=%d", vc.name, sh, w), got, want)
				})
			}
		}
	}
}

// TestGEMMTileForcedPacked drives gemmTile directly — bypassing the
// small-shape dispatch to the naive kernels — so the packed path and its
// edge tiles are exercised at dims the dispatcher would never send them
// (0/1/partial tiles in every position), including arbitrary interior
// tiles of a larger output.
func TestGEMMTileForcedPacked(t *testing.T) {
	bothTypes(t, gemmTileForcedPacked[float64], gemmTileForcedPacked[float32])
}

func gemmTileForcedPacked[T arena.Elem](t *testing.T) {
	pack, mr := packOf[T](), gemmMR[T]()
	for _, vc := range gemmVariants {
		rng := NewRNG(43)
		for _, sh := range [][3]int{
			{1, 1, 1}, {1, 3, 9}, {2, 5, 8}, {3, 2, 7}, {mr - 1, 1, 8}, {mr, 1, 8},
			{5, 300, 11}, {6, 17, 19}, {11, 23, 29}, {mr, 8, 8},
		} {
			n, k, m := sh[0], sh[1], sh[2]
			a, b := operands[T](rng, n, k, m)
			want := naiveRef(vc.v, a, b, n, k, m)
			got := make([]T, n*m)
			gemmTile(pack, vc.v, got, a, b, n, k, m, 0, n, 0, m)
			sameBitsOf(t, fmt.Sprintf("%s/forced %v", vc.name, sh), got, want)

			// An interior tile must reproduce exactly its rectangle and
			// leave the rest of the output untouched.
			if n >= 3 && m >= 3 {
				pi := T(math.Pi)
				part := filled(n*m, pi)
				r0, r1, c0, c1 := 1, n-1, 1, m-1
				gemmTile(pack, vc.v, part, a, b, n, k, m, r0, r1, c0, c1)
				for i := 0; i < n; i++ {
					for j := 0; j < m; j++ {
						want1 := pi
						if i >= r0 && i < r1 && j >= c0 && j < c1 {
							want1 = want[i*m+j]
						}
						if bitsOf(part[i*m+j]) != bitsOf(want1) {
							t.Fatalf("%s tile [%d:%d)x[%d:%d) of %v elem (%d,%d): got %v want %v",
								vc.name, r0, r1, c0, c1, sh, i, j, part[i*m+j], want1)
						}
					}
				}
			}
		}
	}
}

// TestGEMMPortableKernelParity pins the portable Go micro-kernel to the
// same bits as the naive reference (and, transitively, the AVX2 kernels,
// which the other tests cover when they are active). On machines where the
// assembly kernels are enabled this flips them off for the duration.
func TestGEMMPortableKernelParity(t *testing.T) {
	old := gemmUseAsm
	gemmUseAsm = false
	defer func() { gemmUseAsm = old }()
	bothTypes(t, gemmPortableKernelParity[float64], gemmPortableKernelParity[float32])
}

func gemmPortableKernelParity[T arena.Elem](t *testing.T) {
	pack := packOf[T]()
	for _, vc := range gemmVariants {
		rng := NewRNG(47)
		for _, sh := range [][3]int{{64, 64, 64}, {33, 257, 41}, {128, 16, 24}} {
			n, k, m := sh[0], sh[1], sh[2]
			a, b := operands[T](rng, n, k, m)
			want := naiveRef(vc.v, a, b, n, k, m)
			got := make([]T, n*m)
			gemmTile(pack, vc.v, got, a, b, n, k, m, 0, n, 0, m)
			sameBitsOf(t, fmt.Sprintf("%s/portable %v", vc.name, sh), got, want)
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
	bothTypes(t, gemmNonFiniteSemantics[float64], gemmNonFiniteSemantics[float32])
}

func gemmNonFiniteSemantics[T arena.Elem](t *testing.T) {
	inf, nan := T(math.Inf(1)), T(math.NaN())
	isNaN := func(x T) bool { return x != x }

	// Row [0, 1] against columns with Inf/NaN in the position the zero
	// hits: 0·Inf = NaN and 0·NaN = NaN must reach the output.
	c := engineCall(gemmNN, []T{0, 1}, []T{
		inf, nan, 5,
		2, 3, inf,
	}, 1, 2, 3)
	if !isNaN(c[0]) || !isNaN(c[1]) {
		t.Fatalf("0·Inf / 0·NaN terms must propagate NaN, got %v", c)
	}
	if c[2] != inf {
		t.Fatalf("1·Inf must stay +Inf, got %v", c[2])
	}

	// The old skip could also flip signed zeros; the defined semantics
	// accumulate every ±0 term. -1·0 + 0·5 = (+0 + -0) + +0 = +0.
	c2 := engineCall(gemmNN, []T{-1, 0}, []T{0, 5}, 1, 2, 1)
	if bitsOf(c2[0]) != 0 {
		t.Fatalf("±0 accumulation must yield +0, got %v", c2[0])
	}

	// Engine and naive reference must agree on non-finite inputs too: the
	// same elements NaN, every other element bit-identical (±Inf signs
	// included). NaN payloads are compared only for NaN-ness — IEEE 754
	// leaves payload propagation to the implementation, and the compiled
	// scalar kernels and the AVX2 kernels may pick different source NaNs.
	rng := NewRNG(53)
	for _, vc := range gemmVariants {
		n, k, m := 48, 96, 40
		x, y := operands[T](rng, n, k, m)
		x[7], x[95] = inf, nan
		y[3], y[64] = -inf, nan
		want := naiveRef(vc.v, x, y, n, k, m)
		got := engineCall(vc.v, x, y, n, k, m)
		for i := range want {
			if isNaN(want[i]) {
				if !isNaN(got[i]) {
					t.Fatalf("%s non-finite elem %d: engine %v, naive NaN", vc.name, i, got[i])
				}
				continue
			}
			if bitsOf(got[i]) != bitsOf(want[i]) {
				t.Fatalf("%s non-finite elem %d: engine %v vs naive %v", vc.name, i, got[i], want[i])
			}
		}
	}
}

// TestMatMulIntoAllocFree asserts the warm steady-state contract of the
// engine's Into entry points at 1 worker: the pack buffers come from the
// arena, the serial dispatch builds no closures and the generic engine
// boxes nothing, so a warm call performs zero heap allocations on the
// packed, the pack-free and the small-shape naive paths.
func TestMatMulIntoAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	bothTypes(t, matMulIntoAllocFree[float64], matMulIntoAllocFree[float32])
}

func matMulIntoAllocFree[T arena.Elem](t *testing.T) {
	rng := NewRNG(59)
	for _, sh := range [][3]int{{64, 64, 64}, {8, 8, 8}, {3, 5, 7}} {
		n, k, m := sh[0], sh[1], sh[2]
		c := make([]T, n*m)
		var calls [3]func()
		for _, vc := range gemmVariants {
			a, b := operands[T](rng, n, k, m)
			as, bs := storedShapes(vc.v, n, k, m)
			calls[vc.v] = publicInto(vc.v, c, a, b, []int{n, m}, as, bs)
			calls[vc.v]() // warm the pack-buffer pool
		}
		if allocs := testing.AllocsPerRun(20, func() {
			calls[gemmNN]()
			calls[gemmTA]()
			calls[gemmTB]()
		}); allocs != 0 {
			t.Errorf("warm MatMul*Into at shape %v allocates %v per run, want 0", sh, allocs)
		}
	}
}

// TestMatMulRejectsBadShapes feeds every dense-product entry point, in
// both element types, an operand of the wrong rank and a set of shapes
// that do not compose: each must panic with a message that names the
// package and the entry point, not die on an index.
func TestMatMulRejectsBadShapes(t *testing.T) {
	t2 := func(shape ...int) *Tensor { return New(shape...) }
	f2 := func(shape ...int) *F32 { return NewF32(shape...) }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"MatMul/rank", func() { MatMul(t2(4), t2(4, 4)) }},
		{"MatMul/mismatch", func() { MatMul(t2(4, 3), t2(4, 4)) }},
		{"MatMulTransA/rank", func() { MatMulTransA(t2(4, 4), t2(4)) }},
		{"MatMulTransA/mismatch", func() { MatMulTransA(t2(3, 4), t2(4, 4)) }},
		{"MatMulTransB/rank", func() { MatMulTransB(t2(4), t2(4)) }},
		{"MatMulTransB/mismatch", func() { MatMulTransB(t2(4, 3), t2(4, 4)) }},
		{"MatMulInto/rank", func() { MatMulInto(t2(4, 4), t2(4), t2(4, 4)) }},
		{"MatMulInto/rank-out", func() { MatMulInto(t2(16), t2(4, 4), t2(4, 4)) }},
		{"MatMulInto/mismatch", func() { MatMulInto(t2(4, 4), t2(4, 3), t2(4, 4)) }},
		{"MatMulInto/mismatch-out", func() { MatMulInto(t2(4, 5), t2(4, 4), t2(4, 4)) }},
		{"MatMulTransAInto/rank", func() { MatMulTransAInto(t2(4, 4), t2(4, 4), t2(4)) }},
		{"MatMulTransAInto/mismatch", func() { MatMulTransAInto(t2(4, 4), t2(3, 4), t2(4, 4)) }},
		{"MatMulTransBInto/rank", func() { MatMulTransBInto(t2(4, 4), t2(4), t2(4, 4)) }},
		{"MatMulTransBInto/mismatch", func() { MatMulTransBInto(t2(4, 4), t2(4, 3), t2(4, 4)) }},
		{"MatMulF32Into/rank", func() { MatMulF32Into(f2(4, 4), f2(4), f2(4, 4)) }},
		{"MatMulF32Into/mismatch", func() { MatMulF32Into(f2(4, 4), f2(4, 3), f2(4, 4)) }},
		{"MatMulF32TransAInto/rank", func() { MatMulF32TransAInto(f2(4, 4), f2(4, 4), f2(4)) }},
		{"MatMulF32TransAInto/mismatch", func() { MatMulF32TransAInto(f2(4, 4), f2(3, 4), f2(4, 4)) }},
		{"MatMulF32TransBInto/rank", func() { MatMulF32TransBInto(f2(4), f2(4, 4), f2(4, 4)) }},
		{"MatMulF32TransBInto/mismatch", func() { MatMulF32TransBInto(f2(4, 4), f2(4, 3), f2(4, 4)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op, _, _ := strings.Cut(tc.name, "/")
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "tensor: "+op+" ") {
					t.Fatalf("want a panic message starting %q, got %q", "tensor: "+op+" ", msg)
				}
			}()
			tc.call()
		})
	}
}

// gemmModelShapes are the (variant, n, k, m) products the three model
// families run (forward, dX, dW), and the shapes either side of each of
// gemmInto's dispatch lines: FuzzGEMMParity's seed corpus, in both element
// types.
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

// FuzzGEMMParity is the differential oracle for the GEMM engine: for
// either element type, any product up to 96 a side, any variant, and
// operands salted with zeros, negative zeros and denormals, the naive
// kernels, the packed engine (forced), the pack-free run (forced, where
// the output is whole tiles for that type) and whatever gemmInto
// dispatches to produce the same bits, on the AVX2 micro-kernel and on
// the portable one. Plain `go test` runs the seed corpus, which is
// gemmModelShapes in both types; `make gemm-fuzz-smoke` explores.
func FuzzGEMMParity(f *testing.F) {
	for i, sh := range gemmModelShapes {
		f.Add(uint8(0), uint8(sh.v), uint8(sh.n), uint8(sh.k), uint8(sh.m), uint64(i))
		f.Add(uint8(1), uint8(sh.v), uint8(sh.n), uint8(sh.k), uint8(sh.m), uint64(i))
	}
	f.Fuzz(func(t *testing.T, dtype, variant, nn, kk, mm uint8, seed uint64) {
		v := gemmVariant(variant % 3)
		n, k, m := int(nn)%97, int(kk)%97, int(mm)%97
		if dtype%2 == 0 {
			fuzzGEMMParity[float64](t, v, n, k, m, seed, 1e-310)
		} else {
			fuzzGEMMParity[float32](t, v, n, k, m, seed, 1e-40)
		}
	})
}

// fuzzGEMMParity is one FuzzGEMMParity input in element type T; tiny
// scales a twentieth of the operands to T's denormals, or underflows them
// to ±0.
func fuzzGEMMParity[T arena.Elem](t *testing.T, v gemmVariant, n, k, m int, seed uint64, tiny T) {
	pack, mr := packOf[T](), gemmMR[T]()
	rng := NewRNG(seed)
	a, b := operands[T](rng, n, k, m)
	for _, op := range [][]T{a, b} {
		for i := range op {
			if rng.Float64() < 0.05 {
				op[i] *= tiny
			}
		}
	}
	want := naiveRef(v, a, b, n, k, m)
	haveAsm := gemmUseAsm
	defer func() { gemmUseAsm = haveAsm }()
	pi := T(math.Pi)
	for _, asm := range []bool{true, false} {
		if asm && !haveAsm {
			continue
		}
		gemmUseAsm = asm
		label := fmt.Sprintf("%T %s %dx%dx%d seed=%d asm=%v", tiny, gemmVariants[v].name, n, k, m, seed, asm)
		got := filled(n*m, pi)
		gemmInto(pack, v, got, a, b, n, k, m)
		sameBitsOf(t, label+" dispatch", got, want)
		if n*m == 0 {
			continue
		}
		got = filled(n*m, pi)
		gemmTile(pack, v, got, a, b, n, k, m, 0, n, 0, m)
		sameBitsOf(t, label+" packed", got, want)
		if k > 0 && n%mr == 0 && m%gemmNR == 0 {
			got = filled(n*m, pi)
			gemmDirectTiles(pack, v, got, a, b, n, k, m)
			sameBitsOf(t, label+" direct", got, want)
		}
	}
}

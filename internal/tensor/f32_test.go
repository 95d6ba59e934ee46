package tensor

import (
	"math"
	"testing"
)

// TestBF16Round pins the rounding semantics the BFloat16 regime stages
// operands through: round to nearest even on the 16 discarded mantissa
// bits, exponent untouched, NaN/Inf/zero passthrough.
func TestBF16Round(t *testing.T) {
	bits := func(hi uint16) float32 { return math.Float32frombits(uint32(hi) << 16) }
	cases := []struct {
		name string
		in   uint32 // float32 bits
		want uint32
	}{
		// 1.0 + below-half fraction rounds down; above-half rounds up.
		{"below-half", 0x3F800000 | 0x7FFF, 0x3F800000},
		{"above-half", 0x3F800000 | 0x8001, 0x3F810000},
		// Ties go to even: keep-bit 0 stays, keep-bit 1 rounds up.
		{"tie-even", 0x3F800000 | 0x8000, 0x3F800000},
		{"tie-odd", 0x3F810000 | 0x8000, 0x3F820000},
		// Mantissa carry propagates into the exponent: 2-ulp-below-2.0
		// rounds to exactly 2.0.
		{"carry", 0x3FFFFFFF, 0x40000000},
		// Signs survive, including -0.
		{"neg", 0xBF800000 | 0x8001, 0xBF810000},
		{"neg-zero", 0x80000000, 0x80000000},
		// Subnormal float32s round within the field like any value.
		{"subnormal", 0x00008000, 0x00000000},
		{"subnormal-up", 0x00018000, 0x00020000},
	}
	for _, c := range cases {
		got := BF16Round(math.Float32frombits(c.in))
		if math.Float32bits(got) != c.want {
			t.Errorf("%s: BF16Round(%08x) = %08x, want %08x",
				c.name, c.in, math.Float32bits(got), c.want)
		}
	}
	// NaN and Inf pass through (NaN-ness preserved; Inf exact).
	if !math.IsNaN(float64(BF16Round(float32(math.NaN())))) {
		t.Error("BF16Round(NaN) must stay NaN")
	}
	for _, s := range []float32{float32(math.Inf(1)), float32(math.Inf(-1))} {
		if BF16Round(s) != s {
			t.Errorf("BF16Round(%v) must pass through", s)
		}
	}
	// Values already at bf16 precision are fixed points.
	for _, hi := range []uint16{0x3F80, 0xC000, 0x0001, 0x7F7F} {
		v := bits(hi)
		if BF16Round(v) != v {
			t.Errorf("BF16Round(%v) must be a fixed point", v)
		}
	}
}

// TestF32Conversions covers the staging round trip: FromF64 under both
// reduced regimes, exact widening back, and f64 accumulation.
func TestF32Conversions(t *testing.T) {
	src := FromSlice([]float64{1.5, -2.25, 1e-40, 3.14159265358979, 0}, 5)
	f := NewF32(5)
	f.FromF64(src, Float32)
	for i, v := range src.Data {
		if f.Data[i] != float32(v) {
			t.Fatalf("Float32 staging elem %d: %v != %v", i, f.Data[i], float32(v))
		}
	}
	f.FromF64(src, BFloat16)
	for i, v := range src.Data {
		if want := BF16Round(float32(v)); f.Data[i] != want {
			t.Fatalf("BFloat16 staging elem %d: %v != %v", i, f.Data[i], want)
		}
	}

	dst := New(5)
	f.CopyToF64(dst)
	for i, v := range f.Data {
		if dst.Data[i] != float64(v) {
			t.Fatalf("CopyToF64 elem %d: %v != %v", i, dst.Data[i], float64(v))
		}
	}
	f.AddToF64(dst) // dst = 2v exactly (widening is exact, v+v exact in f64)
	for i, v := range f.Data {
		if dst.Data[i] != 2*float64(v) {
			t.Fatalf("AddToF64 elem %d: %v != %v", i, dst.Data[i], 2*float64(v))
		}
	}
}

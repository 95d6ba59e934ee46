package precision

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

func TestFP32RoundTripExact(t *testing.T) {
	// Values representable in float32 must be fixed points.
	for _, v := range []float64{0, 1, -2.5, 0.125, 1024, float64(float32(0.1))} {
		if got := Quantize(v, FP32); got != v {
			t.Fatalf("fp32(%v) = %v, want exact", v, got)
		}
	}
}

func TestFP32MatchesFloat32Conversion(t *testing.T) {
	rng := tensor.NewRNG(1)
	for i := 0; i < 1000; i++ {
		v := rng.Norm() * math.Pow(10, rng.Uniform(-6, 6))
		want := float64(float32(v))
		got := Quantize(v, FP32)
		if got != want {
			t.Fatalf("fp32(%v) = %v, float32 conversion gives %v", v, got, want)
		}
	}
}

func TestFP16Granularity(t *testing.T) {
	// 1 + 2^-11 rounds to 1 in fp16 (10 mantissa bits, round-to-even).
	if got := Quantize(1+math.Pow(2, -11), FP16); got != 1 {
		t.Fatalf("fp16 rounding: %v", got)
	}
	// 1 + 2^-10 is representable.
	if got := Quantize(1+math.Pow(2, -10), FP16); got != 1+math.Pow(2, -10) {
		t.Fatalf("fp16 exact value: %v", got)
	}
}

func TestFP16OverflowSaturates(t *testing.T) {
	got := Quantize(1e9, FP16)
	if got > 65504+1 || got < 60000 {
		t.Fatalf("fp16 overflow should saturate near 65504, got %v", got)
	}
}

func TestFP16UnderflowFlushes(t *testing.T) {
	if got := Quantize(1e-9, FP16); got != 0 {
		t.Fatalf("fp16 underflow should flush to zero, got %v", got)
	}
}

func TestBF16CoarserThanFP16Mantissa(t *testing.T) {
	v := 1 + math.Pow(2, -9)
	f16 := Quantize(v, FP16)
	b16 := Quantize(v, BF16)
	if f16 == 1.0 {
		t.Fatal("fp16 should represent 1+2^-9")
	}
	if b16 != 1.0 {
		t.Fatalf("bf16 (7 mantissa bits) should round 1+2^-9 to 1, got %v", b16)
	}
}

func TestBF16KeepsFP32Range(t *testing.T) {
	if got := Quantize(1e38, BF16); math.IsInf(got, 0) || got == 0 {
		t.Fatalf("bf16 shares fp32 exponent range: %v", got)
	}
	if got := Quantize(1e-9, BF16); got == 0 {
		t.Fatalf("bf16 should represent 1e-9: %v", got)
	}
}

func TestFixedQuantizationLevels(t *testing.T) {
	xs := []float64{-1, -0.5, 0, 0.5, 1}
	QuantizeSlice(xs, Fixed8)
	// Max magnitude 1 → scale 1/127; ±1 and 0 are exact.
	if xs[0] != -1 || xs[2] != 0 || xs[4] != 1 {
		t.Fatalf("fixed8 endpoints: %v", xs)
	}
	// Every value must be an integer multiple of the scale.
	scale := 1.0 / 127
	for _, v := range xs {
		q := v / scale
		if math.Abs(q-math.Round(q)) > 1e-9 {
			t.Fatalf("fixed8 value %v not on the grid", v)
		}
	}
}

func TestTernaryThreeLevels(t *testing.T) {
	xs := []float64{2, -2, 0.01, -0.01, 1.5}
	QuantizeSlice(xs, Ternary)
	levels := map[float64]bool{}
	for _, v := range xs {
		levels[v] = true
	}
	if len(levels) > 3 {
		t.Fatalf("ternary must have <= 3 levels: %v", xs)
	}
	if xs[2] != 0 || xs[3] != 0 {
		t.Fatalf("small values should snap to 0: %v", xs)
	}
	if xs[0] <= 0 || xs[1] >= 0 {
		t.Fatal("large values keep their sign")
	}
}

func TestQuantizeSliceIdempotentProperty(t *testing.T) {
	rng := tensor.NewRNG(7)
	for _, f := range []Format{FP32, FP16, BF16, Fixed16, Fixed8, Ternary} {
		fcopy := f
		check := func(seed uint64) bool {
			r := rng.Split(seed)
			xs := make([]float64, 16)
			for i := range xs {
				xs[i] = r.Norm() * 3
			}
			QuantizeSlice(xs, fcopy)
			once := append([]float64(nil), xs...)
			QuantizeSlice(xs, fcopy)
			for i := range xs {
				// Scale recomputation may differ by summation rounding;
				// allow one part in 1e12.
				if math.Abs(xs[i]-once[i]) > 1e-12*(1+math.Abs(once[i])) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("%s not idempotent: %v", f, err)
		}
	}
}

// Property: quantization error is monotone in fidelity: fp32 error <= fp16
// error for the same input (on values within fp16 range).
func TestErrorOrderingProperty(t *testing.T) {
	rng := tensor.NewRNG(13)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		v := r.Uniform(-100, 100)
		e32 := math.Abs(Quantize(v, FP32) - v)
		e16 := math.Abs(Quantize(v, FP16) - v)
		return e32 <= e16+1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyAppliesToParams(t *testing.T) {
	p := autograd.NewParam("w", tensor.FromSlice([]float64{1 + math.Pow(2, -20)}, 1))
	pol := WeightsOnly(FP16)
	pol.ApplyToWeights([]*autograd.Param{p})
	if p.Value.Data[0] != 1 {
		t.Fatalf("policy should quantize weights: %v", p.Value.Data[0])
	}
	// Grads untouched under WeightsOnly.
	p.Grad.Data[0] = 1 + math.Pow(2, -20)
	pol.ApplyToGrads([]*autograd.Param{p})
	if p.Grad.Data[0] == 1 {
		t.Fatal("WeightsOnly must not quantize grads")
	}
}

func TestFullPrecisionIsNoOp(t *testing.T) {
	p := autograd.NewParam("w", tensor.FromSlice([]float64{math.Pi}, 1))
	FullPrecision().ApplyToWeights([]*autograd.Param{p})
	if p.Value.Data[0] != math.Pi {
		t.Fatal("fp64 policy must be a no-op")
	}
}

func TestFormatStrings(t *testing.T) {
	for f, want := range map[Format]string{
		FP64: "fp64", FP32: "fp32", FP16: "fp16", BF16: "bf16",
		Fixed16: "fixed16", Fixed8: "fixed8", Ternary: "ternary",
	} {
		if f.String() != want {
			t.Fatalf("format %d string %q", f, f.String())
		}
	}
}

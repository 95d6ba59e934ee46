package precision

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// ---- Quantize edge cases (the quantizer must be trustworthy before it
// drives training through MP.BeginStep) ----

// TestQuantizeNonFinitePassthrough: NaN and ±Inf pass through every
// floating format untouched (NaN-ness and Inf sign preserved).
func TestQuantizeNonFinitePassthrough(t *testing.T) {
	for _, f := range []Format{FP32, FP16, BF16} {
		if !math.IsNaN(Quantize(math.NaN(), f)) {
			t.Errorf("%v: NaN must stay NaN", f)
		}
		for _, s := range []float64{1, -1} {
			if got := Quantize(math.Inf(int(s)), f); !math.IsInf(got, int(s)) {
				t.Errorf("%v: Inf(%v) became %v", f, s, got)
			}
		}
	}
}

// TestQuantizeSignedZero: both zeros are fixed points with their sign bit
// intact, and subnormal flush must preserve the sign... or at minimum
// produce a zero. The contract pinned here: +0 → +0, -0 → -0.
func TestQuantizeSignedZero(t *testing.T) {
	for _, f := range []Format{FP32, FP16, BF16} {
		if got := Quantize(0, f); got != 0 || math.Signbit(got) {
			t.Errorf("%v: +0 became %v", f, got)
		}
		nz := math.Copysign(0, -1)
		if got := Quantize(nz, f); got != 0 || !math.Signbit(got) {
			t.Errorf("%v: -0 became %v (signbit %v)", f, got, math.Signbit(got))
		}
	}
}

// TestQuantizeSubnormalFlush: magnitudes below each format's smallest
// normal flush to zero (the simulated formats are flush-to-zero, matching
// the package's Figure 1 reproduction), while the smallest normal itself
// survives exactly.
func TestQuantizeSubnormalFlush(t *testing.T) {
	cases := []struct {
		f      Format
		minExp int
	}{
		{FP32, -126}, {FP16, -14}, {BF16, -126},
	}
	for _, c := range cases {
		smallestNormal := math.Ldexp(1, c.minExp)
		if got := Quantize(smallestNormal, c.f); got != smallestNormal {
			t.Errorf("%v: smallest normal %g became %g", c.f, smallestNormal, got)
		}
		sub := math.Ldexp(1, c.minExp-1) // half the smallest normal
		if got := Quantize(sub, c.f); got != 0 {
			t.Errorf("%v: subnormal %g must flush to zero, got %g", c.f, sub, got)
		}
		if got := Quantize(-sub, c.f); got != 0 {
			t.Errorf("%v: subnormal %g must flush to zero, got %g", c.f, -sub, got)
		}
	}
}

// TestQuantizeRoundToNearestEven probes the mantissa boundary of bf16 (7
// bits) and fp16 (10 bits): exactly-half values round to the even
// neighbor, just-above-half rounds up, just-below rounds down.
func TestQuantizeRoundToNearestEven(t *testing.T) {
	cases := []struct {
		f    Format
		bits uint
	}{
		{BF16, 7}, {FP16, 10},
	}
	for _, c := range cases {
		ulp := math.Ldexp(1, -int(c.bits)) // ulp of the format at 1.0
		half := ulp / 2
		// 1 + half is a tie; 1 has an even mantissa → rounds down to 1.
		if got := Quantize(1+half, c.f); got != 1 {
			t.Errorf("%v: tie at even 1+%g rounded to %v, want 1", c.f, half, got)
		}
		// (1+ulp) + half is a tie at an odd mantissa → rounds up to 1+2ulp.
		if got := Quantize(1+ulp+half, c.f); got != 1+2*ulp {
			t.Errorf("%v: tie at odd rounded to %v, want %v", c.f, got, 1+2*ulp)
		}
		// Above/below half round to nearest.
		if got := Quantize(1+half+half/64, c.f); got != 1+ulp {
			t.Errorf("%v: above-half rounded to %v, want %v", c.f, got, 1+ulp)
		}
		if got := Quantize(1+half-half/64, c.f); got != 1 {
			t.Errorf("%v: below-half rounded to %v, want 1", c.f, got)
		}
		// Carry across the exponent: just below 2 rounds up to exactly 2.
		if got := Quantize(2-half/2, c.f); got != 2 {
			t.Errorf("%v: mantissa carry gave %v, want 2", c.f, got)
		}
	}
}

// TestBF16AgreesWithTensorRound pins the two bf16 implementations to each
// other on float32-representable inputs: precision.Quantize (f64
// bit-trick, drives master-weight rounds) and tensor.BF16Round (f32
// bit-trick, drives tape operand staging) must round such values
// identically, so "bf16 weights" means one thing across the stack.
// (On general float64 inputs the staged path may legitimately differ by
// one ulp from direct rounding — the documented double-rounding of
// F32.FromF64.)
func TestBF16AgreesWithTensorRound(t *testing.T) {
	rng := tensor.NewRNG(5)
	for i := 0; i < 2000; i++ {
		v := float64(float32(rng.Norm() * math.Pow(10, rng.Uniform(-4, 4))))
		direct := Quantize(v, BF16)
		staged := float64(tensor.BF16Round(float32(v)))
		if direct != staged {
			t.Fatalf("bf16 disagreement at %g: Quantize %g, BF16Round %g", v, direct, staged)
		}
	}
}

// ---- MP trainer ----

func mpFixture() ([]*autograd.Param, *MP, *opt.SGD) {
	rng := tensor.NewRNG(9)
	params := []*autograd.Param{
		autograd.NewParam("w1", tensor.Randn(rng, 0.5, 4, 4)),
		autograd.NewParam("w2", tensor.Randn(rng, 0.5, 4, 1)),
	}
	mp := NewMP(params)
	mp.SetState(MPState{Scale: 8})
	o := opt.NewSGD(params, 0.1, 0.9, 0, opt.TorchStyle)
	return params, mp, o
}

// TestMPWeightRoundTrip: BeginStep rounds the live weights to bf16 and
// Apply restores the float64 masters exactly.
func TestMPWeightRoundTrip(t *testing.T) {
	params, mp, o := mpFixture()
	orig := params[0].Value.Clone()

	mp.BeginStep()
	rounded := false
	for i, v := range params[0].Value.Data {
		if got, want := v, Quantize(orig.Data[i], BF16); got != want {
			t.Fatalf("BeginStep weight %d: %v, want bf16 round %v", i, got, want)
		}
		if v != orig.Data[i] {
			rounded = true
		}
	}
	if !rounded {
		t.Fatal("bf16 rounding changed no weight — fixture too coarse")
	}
	// Zero grads → Step is a no-op under zero momentum/velocity start, so
	// after Apply the weights are exactly the restored masters.
	if !mp.Apply(o) {
		t.Fatal("Apply with zero grads must not skip")
	}
	for i, v := range params[0].Value.Data {
		if v != orig.Data[i] {
			t.Fatalf("master weight %d not restored: %v vs %v", i, v, orig.Data[i])
		}
	}
}

// TestMPUnscaleExact: gradients scaled by the loss scale produce exactly
// the same update as unscaled gradients with a plain optimizer step —
// power-of-two scaling is lossless end to end.
func TestMPUnscaleExact(t *testing.T) {
	mkParams := func() []*autograd.Param {
		rng := tensor.NewRNG(17)
		ps := []*autograd.Param{autograd.NewParam("w", tensor.Randn(rng, 0.5, 8, 8))}
		r2 := tensor.NewRNG(19)
		for i := range ps[0].Grad.Data {
			ps[0].Grad.Data[i] = r2.Norm()
		}
		return ps
	}

	// Reference: plain step on unscaled grads.
	ref := mkParams()
	opt.NewSGD(ref, 0.1, 0.9, 0.01, opt.TorchStyle).Step()

	// MP: grads multiplied by the scale, Apply divides it back out.
	ps := mkParams()
	mp := NewMP(ps)
	mp.SetState(MPState{Scale: 1 << 10})
	mp.BeginStep()
	for i := range ps[0].Grad.Data {
		ps[0].Grad.Data[i] *= mp.Scale()
	}
	if !mp.Apply(opt.NewSGD(ps, 0.1, 0.9, 0.01, opt.TorchStyle)) {
		t.Fatal("Apply skipped a finite step")
	}
	for i := range ref[0].Value.Data {
		if math.Float64bits(ps[0].Value.Data[i]) != math.Float64bits(ref[0].Value.Data[i]) {
			t.Fatalf("elem %d: MP update %v, reference %v", i, ps[0].Value.Data[i], ref[0].Value.Data[i])
		}
	}
}

// TestMPOverflowSkipAndBackoff: a NaN/Inf gradient skips the update,
// halves the scale, and leaves the weights at the masters; recovery and
// growth bookkeeping follow the recipe.
func TestMPOverflowSkipAndBackoff(t *testing.T) {
	params, mp, o := mpFixture()
	w0 := params[0].Value.Clone()

	mp.BeginStep()
	params[0].Grad.Data[3] = math.Inf(1)
	if mp.Apply(o) {
		t.Fatal("Apply must skip on Inf gradient")
	}
	if mp.Scale() != 4 {
		t.Fatalf("scale after backoff: %v, want 4", mp.Scale())
	}
	for i, v := range params[0].Value.Data {
		if v != w0.Data[i] {
			t.Fatalf("skipped step must leave weights at masters (elem %d)", i)
		}
	}

	// Two good steps that complete a growth interval grow the scale back.
	mp.SetState(MPState{Scale: mp.Scale(), Good: growthInterval - 2, Skipped: 1, Backoffs: 1})
	params[0].Grad.Zero()
	for s := 0; s < 2; s++ {
		mp.BeginStep()
		if !mp.Apply(o) {
			t.Fatal("finite step skipped")
		}
	}
	if mp.Scale() != 8 {
		t.Fatalf("scale after growth: %v, want 8", mp.Scale())
	}
	st := mp.State()
	if st.Skipped != 1 || st.Backoffs != 1 || st.Growths != 1 || st.Steps != 2 {
		t.Fatalf("stats %+v: want 1 skip, 1 backoff, 1 growth, 2 steps", st)
	}

	// The scale never backs off below minScale.
	for i := 0; i < 40; i++ {
		mp.BeginStep()
		params[0].Grad.Data[0] = math.NaN()
		mp.Apply(o)
		params[0].Grad.Zero()
	}
	if mp.Scale() < 1 {
		t.Fatalf("scale %v fell below minScale", mp.Scale())
	}
}

// TestNumericsMixed pins the dtype→regime mapping: only bf16 layers the
// mixed-precision recipe on its compute dtype, and its trainer starts at
// the recipe's initial loss scale.
func TestNumericsMixed(t *testing.T) {
	for _, d := range []tensor.DType{tensor.Float64, tensor.Float32} {
		if n := (Numerics{Compute: d}); n.Mixed() || n.NewTrainer(nil) != nil {
			t.Fatalf("%v regime: mixed %v, want a plain regime with a nil trainer", d, n.Mixed())
		}
	}
	n := Numerics{Compute: tensor.BFloat16}
	if !n.Mixed() {
		t.Fatal("bf16 regime must be mixed")
	}
	if mp := n.NewTrainer(nil); mp == nil || mp.Scale() != initScale {
		t.Fatalf("bf16 trainer %v: want one at the initial scale %g", mp, float64(initScale))
	}
}

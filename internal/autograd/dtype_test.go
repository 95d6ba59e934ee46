package autograd

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// lpStep runs one forward/backward of a two-layer MatMul chain on a tape
// with the given dtype and returns the two parameter gradients.
func lpStep(t *testing.T, d tensor.DType, seed float64) (*tensor.Tensor, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(11)
	x := tensor.Randn(rng, 1, 16, 24)
	w1 := NewParam("w1", tensor.Randn(rng, 0.3, 24, 32))
	w2 := NewParam("w2", tensor.Randn(rng, 0.3, 32, 1))
	tape := NewTape()
	tape.SetDType(d)
	h := MatMul(Const(x), tape.Watch(w1))
	loss := Sum(MatMul(h, tape.Watch(w2)))
	tape.BackwardScaled(loss, seed)
	return w1.Grad, w2.Grad
}

// TestMatMulLPForward holds the reduced-precision MatMul to a hand-staged
// reference: narrow (and bf16-round) the operands, run the f32 engine,
// widen — the op must produce exactly those bits, for both reduced
// regimes, and must differ from the f64 path (if it didn't, the regime
// switch would be a no-op).
func TestMatMulLPForward(t *testing.T) {
	rng := tensor.NewRNG(7)
	av := tensor.Randn(rng, 1, 9, 33)
	bv := tensor.Randn(rng, 1, 33, 17)
	ref64 := tensor.MatMul(av, bv)

	for _, d := range []tensor.DType{tensor.Float32, tensor.BFloat16} {
		tape := NewTape()
		tape.SetDType(d)
		out := MatMul(Const(av), tape.Leaf(bv))

		la := tensor.NewF32(9, 33)
		lb := tensor.NewF32(33, 17)
		lo := tensor.NewF32(9, 17)
		la.FromF64(av, d)
		lb.FromF64(bv, d)
		tensor.MatMulF32Into(lo, la, lb)
		diff := false
		for i, v := range lo.Data {
			if math.Float64bits(out.Value.Data[i]) != math.Float64bits(float64(v)) {
				t.Fatalf("%v forward elem %d: tape %v, staged reference %v", d, i, out.Value.Data[i], v)
			}
			if out.Value.Data[i] != ref64.Data[i] {
				diff = true
			}
		}
		if !diff {
			t.Fatalf("%v forward is bit-equal to the f64 path — regime not applied", d)
		}
	}
}

// TestMatMulLPBackward holds the reduced-precision backward products to
// the staged f32 reference, including f64 accumulation across two uses of
// the same parameter.
func TestMatMulLPBackward(t *testing.T) {
	rng := tensor.NewRNG(13)
	x := tensor.Randn(rng, 1, 8, 12)
	w := NewParam("w", tensor.Randn(rng, 0.5, 12, 10))
	d := tensor.BFloat16

	tape := NewTape()
	tape.SetDType(d)
	out := MatMul(Const(x), tape.Watch(w))
	loss := Sum(out)
	tape.Backward(loss)

	// Staged reference: dW = xᵀ·dout with x and dout (all ones) staged at
	// compute precision, product in f32, accumulated into f64.
	lx := tensor.NewF32(8, 12)
	lg := tensor.NewF32(8, 10)
	lw := tensor.NewF32(12, 10)
	lx.FromF64(x, d)
	lg.FromF64(tensor.Full(1, 8, 10), d)
	tensor.MatMulF32TransAInto(lw, lx, lg)
	want := tensor.New(12, 10)
	lw.AddToF64(want)

	for i := range want.Data {
		if math.Float64bits(w.Grad.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("bf16 dW elem %d: tape %v, staged reference %v", i, w.Grad.Data[i], want.Data[i])
		}
	}
}

// TestBackwardScaled asserts the loss-scaling contract: a power-of-two
// seed scales every gradient exactly (scaling by 2^k is exact in binary
// floating point for every non-overflowing value), in both the f64 and
// bf16 regimes — bf16 too because a power-of-two factor only shifts
// exponents, leaving every mantissa (and therefore every rounding
// decision) unchanged.
func TestBackwardScaled(t *testing.T) {
	const scale = 1024.0
	for _, d := range []tensor.DType{tensor.Float64, tensor.BFloat16} {
		g1a, g1b := lpStep(t, d, 1)
		gsa, gsb := lpStep(t, d, scale)
		for i := range g1a.Data {
			if gsa.Data[i] != scale*g1a.Data[i] {
				t.Fatalf("%v w1 grad elem %d: seeded %v, 1024·unseeded %v", d, i, gsa.Data[i], scale*g1a.Data[i])
			}
		}
		for i := range g1b.Data {
			if gsb.Data[i] != scale*g1b.Data[i] {
				t.Fatalf("%v w2 grad elem %d: seeded %v, 1024·unseeded %v", d, i, gsb.Data[i], scale*g1b.Data[i])
			}
		}
	}
}

// TestMatMulLPDeterministicAcrossWorkers pins the reduced-precision
// regime's own determinism contract: not bit-equal to f64, but the same
// bits at every worker count (the f32 engine keeps ascending-k).
func TestMatMulLPDeterministicAcrossWorkers(t *testing.T) {
	var ref1, ref2 *tensor.Tensor
	for _, w := range []int{1, 2, 4, 8} {
		old := parallel.Workers()
		parallel.SetWorkers(w)
		ga, gb := lpStep(t, tensor.BFloat16, 1)
		parallel.SetWorkers(old)
		if ref1 == nil {
			ref1 = ga.Clone()
			ref2 = gb.Clone()
			continue
		}
		for i := range ref1.Data {
			if math.Float64bits(ga.Data[i]) != math.Float64bits(ref1.Data[i]) {
				t.Fatalf("workers=%d w1 grad elem %d: %v vs %v at 1 worker", w, i, ga.Data[i], ref1.Data[i])
			}
		}
		for i := range ref2.Data {
			if math.Float64bits(gb.Data[i]) != math.Float64bits(ref2.Data[i]) {
				t.Fatalf("workers=%d w2 grad elem %d: %v vs %v at 1 worker", w, i, gb.Data[i], ref2.Data[i])
			}
		}
	}
}

// TestMatMulLPAllocFree asserts the warm-replay contract holds in the
// reduced regimes too: staging buffers are shape-stable node fields, so a
// warm bf16 pass performs zero heap allocations.
func TestMatMulLPAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	rng := tensor.NewRNG(3)
	x := NewParam("x", tensor.Randn(rng, 1, 64, 64))
	w1 := NewParam("w1", tensor.Randn(rng, 0.3, 64, 64))
	w2 := NewParam("w2", tensor.Randn(rng, 0.3, 64, 1))

	tape := NewTape()
	tape.SetDType(tensor.BFloat16)
	step := func() {
		x.ZeroGrad()
		w1.ZeroGrad()
		w2.ZeroGrad()
		tape.Reset()
		h := Tanh(MatMul(tape.Watch(x), tape.Watch(w1)))
		tape.BackwardScaled(Sum(MatMul(h, tape.Watch(w2))), 4096)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Errorf("warm bf16 MatMul tape pass allocates %v per step, want 0", n)
	}
}

package autograd

import (
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// negZeroUpstream is an upstream gradient for an [n,m] output with whole
// rows and scattered elements of −0: the values on which the fused Linear
// node and the composed MatMul + AddRowVec pair read different bits (the
// composed MatMul sees +0 + (−0) = +0). A tape never produces them itself,
// since its gradient buffers accumulate from +0, but a seeded stage
// boundary may be handed anything.
func negZeroUpstream(rng *tensor.RNG, n, m int) *tensor.Tensor {
	g := tensor.Randn(rng, 1, n, m)
	negZero := math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			switch {
			case i%3 == 1: // a masked-out row
				g.Data[i*m+j] = negZero
			case rng.Float64() < 0.1:
				g.Data[i*m+j] = negZero
			case rng.Float64() < 0.1:
				g.Data[i*m+j] = 0
			}
		}
	}
	return g
}

// TestLinearNodeMatchesComposed holds the one-node dense layer to the bits
// of AddRowVec(MatMul(x, w), b): the value and all three gradients, in the
// float64, float32 and bfloat16 regimes, at a pack-free shape, a packed
// shape with partial tiles and a naive-dispatch shape, with −0 in the
// upstream gradient and in the weights.
func TestLinearNodeMatchesComposed(t *testing.T) {
	for _, d := range []tensor.DType{tensor.Float64, tensor.Float32, tensor.BFloat16} {
		for _, sh := range [][3]int{{36, 24, 48}, {33, 40, 17}, {5, 3, 7}, {40, 16, 1}} {
			n, k, m := sh[0], sh[1], sh[2]
			rng := tensor.NewRNG(uint64(11 + n))
			xv, wv, bv := tensor.Randn(rng, 1, n, k), tensor.Randn(rng, 0.4, k, m), tensor.Randn(rng, 0.1, m)
			wv.Data[0], wv.Data[m] = math.Copysign(0, -1), 0
			up := negZeroUpstream(rng, n, m)

			run := func(build func(x, w, b *Var) *Var) (y *tensor.Tensor, x *Var, w, b *Param) {
				tape := NewTape()
				tape.SetDType(d)
				x = tape.Leaf(xv)
				w, b = NewParam("w", wv), NewParam("b", bv)
				out := build(x, tape.Watch(w), tape.Watch(b))
				out.Grad.Copy(up)
				tape.BackwardSeeded()
				return out.Value, x, w, b
			}
			fy, fx, fw, fb := run(Linear)
			cy, cx, cw, cb := run(func(x, w, b *Var) *Var { return AddRowVec(MatMul(x, w), b) })
			for _, c := range []struct {
				name      string
				got, want *tensor.Tensor
			}{{"value", fy, cy}, {"x.Grad", fx.Grad, cx.Grad}, {"w.Grad", fw.Grad, cw.Grad}, {"b.Grad", fb.Grad, cb.Grad}} {
				for i := range c.want.Data {
					if math.Float64bits(c.got.Data[i]) != math.Float64bits(c.want.Data[i]) {
						t.Fatalf("%v %dx%dx%d %s[%d]: Linear %v (%#x), composed %v (%#x)", d, n, k, m, c.name, i,
							c.got.Data[i], math.Float64bits(c.got.Data[i]), c.want.Data[i], math.Float64bits(c.want.Data[i]))
					}
				}
			}
		}
	}
}

// A constant product with a watched bias takes the fused node, whose
// backward skips the constant operands; Linear must still differentiate
// the bias.
func TestLinearConstantProduct(t *testing.T) {
	tape := NewTape()
	b := NewParam("b", randT(43, 4))
	y := Linear(Const(randT(41, 3, 5)), Const(randT(42, 5, 4)), tape.Watch(b))
	tape.Backward(Sum(y))
	for j, g := range b.Grad.Data {
		if g != 3 {
			t.Fatalf("bias grad[%d] = %v over 3 rows, want 3", j, g)
		}
	}
}

// TestLinearTapeAllocFree: the fused dense layer keeps the MatMul node's
// warm-replay contract, at a pack-free shape and a packed one, in the
// float64 regime and a staged one.
func TestLinearTapeAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	for _, d := range []tensor.DType{tensor.Float64, tensor.BFloat16} {
		rng := tensor.NewRNG(3)
		x := NewParam("x", tensor.Randn(rng, 1, 36, 24))
		w1, b1 := NewParam("w1", tensor.Randn(rng, 0.3, 24, 48)), NewParam("b1", tensor.New(48))
		w2, b2 := NewParam("w2", tensor.Randn(rng, 0.3, 48, 70)), NewParam("b2", tensor.New(70))
		params := []*Param{x, w1, b1, w2, b2}

		tape := NewTape()
		tape.SetDType(d)
		step := func() {
			for _, p := range params {
				p.ZeroGrad()
			}
			tape.Reset()
			h := ReLU(Linear(tape.Watch(x), tape.Watch(w1), tape.Watch(b1)))
			tape.Backward(Sum(Linear(h, tape.Watch(w2), tape.Watch(b2))))
		}
		for i := 0; i < 3; i++ {
			step()
		}
		if n := tape.Len(); n != 4 {
			t.Errorf("%v: two dense layers record %d nodes, want 2 Linear + ReLU + Sum", d, n)
		}
		if n := testing.AllocsPerRun(10, step); n != 0 {
			t.Errorf("%v: warm Linear tape pass allocates %v per step, want 0", d, n)
		}
	}
}

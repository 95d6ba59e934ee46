package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// attentionComposedRef is the attention core as MultiHeadAttention.Forward
// composed it before autograd.Attention existed: per sample 3 SliceRows,
// per head 3 SliceCols, Transpose, MatMul, Scale, Add(mask), SoftmaxRows,
// MatMul, then ConcatCols and ConcatRows. It is the bit oracle for the
// one-node form, on values and on every gradient.
func attentionComposedRef(q, k, v *autograd.Var, b, tq, tk, heads int, causal bool) *autograd.Var {
	dh := q.Value.Shape[1] / heads
	scale := 1 / math.Sqrt(float64(dh))
	var mask *autograd.Var
	if causal {
		m := tensor.New(tq, tq)
		for i := 0; i < tq; i++ {
			for j := i + 1; j < tq; j++ {
				m.Data[i*tq+j] = -1e9
			}
		}
		mask = autograd.Const(m)
	}
	batchOuts := make([]*autograd.Var, 0, b)
	for bi := 0; bi < b; bi++ {
		qb := autograd.SliceRows(q, bi*tq, (bi+1)*tq)
		kb := autograd.SliceRows(k, bi*tk, (bi+1)*tk)
		vb := autograd.SliceRows(v, bi*tk, (bi+1)*tk)
		headOuts := make([]*autograd.Var, 0, heads)
		for h := 0; h < heads; h++ {
			qh := autograd.SliceCols(qb, h*dh, (h+1)*dh)
			kh := autograd.SliceCols(kb, h*dh, (h+1)*dh)
			vh := autograd.SliceCols(vb, h*dh, (h+1)*dh)
			scores := autograd.Scale(autograd.MatMul(qh, autograd.Transpose(kh)), scale)
			if mask != nil {
				scores = autograd.Add(scores, mask)
			}
			headOuts = append(headOuts, autograd.MatMul(autograd.SoftmaxRows(scores), vh))
		}
		batchOuts = append(batchOuts, autograd.ConcatCols(headOuts...))
	}
	return autograd.ConcatRows(batchOuts...)
}

type attnCore func(q, k, v *autograd.Var, b, tq, tk, heads int, causal bool) *autograd.Var

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, reference %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got.Data[i], math.Float64bits(got.Data[i]), want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestAttentionNodeMatchesComposedBits holds autograd.Attention to the
// composed graph bit for bit: the output and dq, dk, dv, over batch sizes,
// unequal sequence lengths, head counts, head widths, and the causal mask.
// The upstream gradient is a dense random weighting, so no term is zero.
func TestAttentionNodeMatchesComposedBits(t *testing.T) {
	run := func(core attnCore, b, tq, tk, heads, dh int, causal bool) (out, dq, dk, dv *tensor.Tensor) {
		rng := tensor.NewRNG(uint64(1000*b + 100*tq + 10*heads + dh))
		d := heads * dh
		tape := autograd.NewTape()
		// Scaled up so the softmax is far from uniform.
		q := tape.Leaf(tensor.Randn(rng, 3, b*tq, d))
		k := tape.Leaf(tensor.Randn(rng, 3, b*tk, d))
		v := tape.Leaf(tensor.Randn(rng, 1, b*tk, d))
		w := autograd.Const(tensor.Randn(rng, 1, b*tq, d))
		o := core(q, k, v, b, tq, tk, heads, causal)
		tape.Backward(autograd.Sum(autograd.Mul(o, w)))
		return o.Value, q.Grad, k.Grad, v.Grad
	}
	for _, b := range []int{1, 3, 4} {
		for _, tt := range [][2]int{{8, 8}, {9, 9}, {9, 8}, {2, 5}, {1, 1}} {
			for _, heads := range []int{1, 2, 3} {
				for _, dh := range []int{1, 5, 12} {
					for _, causal := range []bool{false, true} {
						tq, tk := tt[0], tt[1]
						if causal && tq != tk {
							continue
						}
						name := fmt.Sprintf("b%d_tq%d_tk%d_h%d_dh%d_causal%v", b, tq, tk, heads, dh, causal)
						out, dq, dk, dv := run(autograd.Attention, b, tq, tk, heads, dh, causal)
						rout, rdq, rdk, rdv := run(attentionComposedRef, b, tq, tk, heads, dh, causal)
						requireSameBits(t, name+" out", out, rout)
						requireSameBits(t, name+" dq", dq, rdq)
						requireSameBits(t, name+" dk", dk, rdk)
						requireSameBits(t, name+" dv", dv, rdv)
					}
				}
			}
		}
	}
}

// q, k and v as ONE Var (all three gradients land in one buffer, whose sum
// order the node must reproduce), and an operand with a second consumer
// recorded before and after the attention.
func TestAttentionNodeSharedOperandsMatchComposedBits(t *testing.T) {
	const b, tt, heads, dh = 3, 5, 2, 4
	d := heads * dh
	for _, causal := range []bool{false, true} {
		run := func(core attnCore) (out, dx, dy *tensor.Tensor) {
			rng := tensor.NewRNG(77)
			tape := autograd.NewTape()
			x := tape.Leaf(tensor.Randn(rng, 2, b*tt, d))
			y := tape.Leaf(tensor.Randn(rng, 2, b*tt, d))
			w := autograd.Const(tensor.Randn(rng, 1, b*tt, d))
			before := autograd.Scale(y, 0.3) // y's other consumers
			o := autograd.Add(core(x, x, x, b, tt, tt, heads, causal), core(x, y, y, b, tt, tt, heads, causal))
			after := autograd.Mul(y, w)
			tape.Backward(autograd.Sum(autograd.Mul(autograd.Add(autograd.Add(o, before), after), w)))
			return o.Value, x.Grad, y.Grad
		}
		out, dx, dy := run(autograd.Attention)
		rout, rdx, rdy := run(attentionComposedRef)
		requireSameBits(t, "out", out, rout)
		requireSameBits(t, "dx", dx, rdx)
		requireSameBits(t, "dy", dy, rdy)
	}
}

// The whole layer against the composed layer: output, input gradients and
// the gradients of all four projection weights (and biases).
func TestMultiHeadAttentionMatchesComposedBits(t *testing.T) {
	const b, tq, tk, d, heads = 4, 9, 8, 24, 2
	for _, self := range []bool{true, false} {
		run := func(composed bool) (m *MultiHeadAttention, out, dq, dkv *tensor.Tensor) {
			rng := tensor.NewRNG(5)
			m = NewMultiHeadAttention("a", d, heads, rng)
			c := ctx(true)
			q := c.Tape.Leaf(tensor.Randn(rng, 1, b*tq, d))
			kv, tkk := q, tq
			if !self {
				kv, tkk = c.Tape.Leaf(tensor.Randn(rng, 1, b*tk, d)), tk
			}
			w := autograd.Const(tensor.Randn(rng, 1, b*tq, d))
			var o *autograd.Var
			if composed {
				core := attentionComposedRef(m.Wq.Forward(c, q), m.Wk.Forward(c, kv), m.Wv.Forward(c, kv), b, tq, tkk, heads, self)
				o = m.Wo.Forward(c, core)
			} else {
				o = m.Forward(c, q, kv, b, tq, tkk, self)
			}
			c.Tape.Backward(autograd.Sum(autograd.Mul(o, w)))
			return m, o.Value, q.Grad, kv.Grad
		}
		m, out, dq, dkv := run(false)
		rm, rout, rdq, rdkv := run(true)
		requireSameBits(t, "out", out, rout)
		requireSameBits(t, "dq", dq, rdq)
		requireSameBits(t, "dkv", dkv, rdkv)
		ps, rps := m.Params(), rm.Params()
		for i, p := range ps {
			if p.Grad.Norm2() == 0 {
				t.Fatalf("%s received no gradient", p.Name)
			}
			requireSameBits(t, p.Name+" grad", p.Grad, rps[i].Grad)
		}
	}
}

// A warm attention layer replays with zero allocations and records four
// projections (one Linear node each, bias included) and the one node.
func TestMultiHeadAttentionWarmReplayAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1) // a forked kernel loop pays a goroutine spawn per fork
	defer parallel.SetWorkers(old)

	const b, tt, d, heads = 4, 9, 24, 2
	rng := tensor.NewRNG(6)
	m := NewMultiHeadAttention("a", d, heads, rng)
	x := tensor.Randn(rng, 1, b*tt, d)
	c, params := ctx(true), m.Params()
	step := func() {
		for _, p := range params {
			p.ZeroGrad()
		}
		c.Tape.Reset()
		c.Tape.Backward(autograd.Sum(m.Forward(c, c.Tape.ConstOf(x), c.Tape.ConstOf(x), b, tt, tt, true)))
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := c.Tape.Len(); n != 4+1+1 {
		t.Fatalf("attention layer records %d nodes, want 4 projections + the attention node + the test's Sum", n)
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Errorf("warm attention layer allocates %v per pass, want 0", n)
	}
}

// benchAttentionCore times one attention core, forward and backward, at
// the default transformer's microbatch shapes (BENCH_step.json rows).
func benchAttentionCore(b *testing.B, core attnCore) {
	const heads, d = 2, 24
	for _, sh := range [][3]int{{4, 8, 8}, {4, 9, 9}, {4, 9, 8}} {
		bs, tq, tk := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("b%d_tq%d_tk%d", bs, tq, tk), func(b *testing.B) {
			rng := tensor.NewRNG(9)
			tape := autograd.NewTape()
			qp := autograd.NewParam("q", tensor.Randn(rng, 1, bs*tq, d))
			kp := autograd.NewParam("k", tensor.Randn(rng, 1, bs*tk, d))
			vp := autograd.NewParam("v", tensor.Randn(rng, 1, bs*tk, d))
			step := func() {
				tape.Reset()
				out := core(tape.Watch(qp), tape.Watch(kp), tape.Watch(vp), bs, tq, tk, heads, tq == tk)
				tape.Backward(autograd.Sum(out))
			}
			for i := 0; i < 3; i++ {
				step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(tape.Len()-1), "nodes") // less the Sum
		})
	}
}

func BenchmarkAttentionNode(b *testing.B)     { benchAttentionCore(b, autograd.Attention) }
func BenchmarkAttentionComposed(b *testing.B) { benchAttentionCore(b, attentionComposedRef) }

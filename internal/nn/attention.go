package nn

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// MultiHeadAttention implements the scaled dot-product attention of the
// Transformer benchmark (§3.1.3, Vaswani et al.). Sequences are packed as
// [B*T, d] matrices with explicit batch/sequence sizes at call time.
type MultiHeadAttention struct {
	Wq, Wk, Wv, Wo *Linear
	Heads, DModel  int
}

// NewMultiHeadAttention builds an attention block with heads dividing dModel.
func NewMultiHeadAttention(name string, dModel, heads int, rng *tensor.RNG) *MultiHeadAttention {
	if dModel%heads != 0 {
		panic("nn: heads must divide dModel")
	}
	return &MultiHeadAttention{
		Wq:     NewLinearXavier(name+".wq", dModel, dModel, true, rng),
		Wk:     NewLinearXavier(name+".wk", dModel, dModel, true, rng),
		Wv:     NewLinearXavier(name+".wv", dModel, dModel, true, rng),
		Wo:     NewLinearXavier(name+".wo", dModel, dModel, true, rng),
		Heads:  heads,
		DModel: dModel,
	}
}

// Forward computes attention with queries from q [b*tq, d] and keys/values
// from kv [b*tk, d]. Self-attention passes q == kv; decoder self-attention
// additionally sets causal. Cross-attention passes encoder memory as kv.
func (m *MultiHeadAttention) Forward(ctx *Ctx, q, kv *autograd.Var, b, tq, tk int, causal bool) *autograd.Var {
	qp := m.Wq.Forward(ctx, q)
	kp := m.Wk.Forward(ctx, kv)
	vp := m.Wv.Forward(ctx, kv)

	out := autograd.Attention(qp, kp, vp, b, tq, tk, m.Heads, causal)
	return m.Wo.Forward(ctx, out)
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*autograd.Param {
	return CollectParams(m.Wq, m.Wk, m.Wv, m.Wo)
}

// PositionalEncoding returns the sinusoidal position table [t, d] from
// "Attention Is All You Need", added to token embeddings.
func PositionalEncoding(t, d int) *tensor.Tensor {
	pe := tensor.New(t, d)
	for pos := 0; pos < t; pos++ {
		for i := 0; i < d; i++ {
			angle := float64(pos) / math.Pow(10000, float64(2*(i/2))/float64(d))
			if i%2 == 0 {
				pe.Data[pos*d+i] = math.Sin(angle)
			} else {
				pe.Data[pos*d+i] = math.Cos(angle)
			}
		}
	}
	return pe
}

// Positions adds the sinusoidal position table to packed [b*t, d] batches.
// It builds the [b*t, d] constant (PositionalEncoding's [t, d] table, once
// per sample) the first time a (b, t) shape is seen and reuses it on every
// later forward, so a warm step neither recomputes the table nor
// allocates. A training run sees a handful of shapes: source and target
// length at the microbatch size, the ragged last batch, and b = 1 for
// decoding.
//
// A Positions is not safe for concurrent use. Each model replica owns one,
// and only the goroutine running that replica's embedding touches it.
type Positions struct {
	D    int // model width
	tabs []posConst
}

type posConst struct {
	b, t int
	v    *autograd.Var
}

// Add returns x + positions for x [b*t, D].
func (p *Positions) Add(x *autograd.Var, b, t int) *autograd.Var {
	for _, c := range p.tabs {
		if c.b == b && c.t == t {
			return autograd.Add(x, c.v)
		}
	}
	pe := PositionalEncoding(t, p.D)
	full := tensor.New(b*t, p.D)
	for bi := 0; bi < b; bi++ {
		copy(full.Data[bi*t*p.D:(bi+1)*t*p.D], pe.Data)
	}
	c := posConst{b: b, t: t, v: autograd.Const(full)}
	p.tabs = append(p.tabs, c)
	return autograd.Add(x, c.v)
}

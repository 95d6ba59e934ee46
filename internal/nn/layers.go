package nn

import (
	"strconv"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Linear is a fully connected layer y = xW + b.
type Linear struct {
	W *autograd.Param // [in, out]
	B *autograd.Param // [out], nil when bias disabled
}

// NewLinear builds a Linear layer with He initialization.
func NewLinear(name string, in, out int, bias bool, rng *tensor.RNG) *Linear {
	l := &Linear{W: autograd.NewParam(name+".w", tensor.Randn(rng, heStd(in), in, out))}
	if bias {
		l.B = autograd.NewParam(name+".b", tensor.New(out))
	}
	return l
}

// NewLinearXavier builds a Linear layer with Glorot initialization,
// appropriate before tanh/sigmoid/softmax.
func NewLinearXavier(name string, in, out int, bias bool, rng *tensor.RNG) *Linear {
	l := &Linear{W: autograd.NewParam(name+".w", tensor.Randn(rng, xavierStd(in, out), in, out))}
	if bias {
		l.B = autograd.NewParam(name+".b", tensor.New(out))
	}
	return l
}

// Forward applies the layer to x [n, in].
func (l *Linear) Forward(ctx *Ctx, x *autograd.Var) *autograd.Var {
	if l.B != nil {
		return autograd.Linear(x, ctx.Tape.Watch(l.W), ctx.Tape.Watch(l.B))
	}
	return autograd.MatMul(x, ctx.Tape.Watch(l.W))
}

// Params implements Module.
func (l *Linear) Params() []*autograd.Param {
	if l.B == nil {
		return []*autograd.Param{l.W}
	}
	return []*autograd.Param{l.W, l.B}
}

// Conv2d is a 2-D convolution layer over NCHW inputs.
type Conv2d struct {
	W           *autograd.Param // [F, C, K, K]
	B           *autograd.Param // [F], nil when bias disabled
	Stride, Pad int
}

// NewConv2d builds a conv layer with He initialization. Bias is typically
// disabled when a BatchNorm follows (as in ResNet).
func NewConv2d(name string, inC, outC, k, stride, pad int, bias bool, rng *tensor.RNG) *Conv2d {
	fanIn := inC * k * k
	c := &Conv2d{
		W:      autograd.NewParam(name+".w", tensor.Randn(rng, heStd(fanIn), outC, inC, k, k)),
		Stride: stride,
		Pad:    pad,
	}
	if bias {
		c.B = autograd.NewParam(name+".b", tensor.New(outC))
	}
	return c
}

// Forward applies the convolution to x [N,C,H,W].
func (c *Conv2d) Forward(ctx *Ctx, x *autograd.Var) *autograd.Var {
	var b *autograd.Var
	if c.B != nil {
		b = ctx.Tape.Watch(c.B)
	}
	return autograd.Conv2D(x, ctx.Tape.Watch(c.W), b, c.Stride, c.Pad)
}

// Params implements Module.
func (c *Conv2d) Params() []*autograd.Param {
	if c.B == nil {
		return []*autograd.Param{c.W}
	}
	return []*autograd.Param{c.W, c.B}
}

// BatchNorm2d normalizes NCHW activations per channel. Running statistics
// are tracked for eval mode; Momentum is the moving-average decay the paper
// lists among layer hyperparameters (§2.1).
type BatchNorm2d struct {
	Gamma, Beta     *autograd.Param
	RunMean, RunVar *tensor.Tensor
	Momentum, Eps   float64
}

// NewBatchNorm2d builds a BatchNorm with gamma=1, beta=0, running var=1.
func NewBatchNorm2d(name string, c int) *BatchNorm2d {
	return &BatchNorm2d{
		Gamma:    autograd.NewParam(name+".gamma", tensor.Ones(c)),
		Beta:     autograd.NewParam(name+".beta", tensor.New(c)),
		RunMean:  tensor.New(c),
		RunVar:   tensor.Ones(c),
		Momentum: 0.1,
		Eps:      1e-5,
	}
}

// Forward normalizes x, using batch stats in training and running stats in
// eval.
func (b *BatchNorm2d) Forward(ctx *Ctx, x *autograd.Var) *autograd.Var {
	return autograd.BatchNorm2D(x, ctx.Tape.Watch(b.Gamma), ctx.Tape.Watch(b.Beta),
		b.RunMean, b.RunVar, b.Momentum, b.Eps, ctx.Train)
}

// Params implements Module.
func (b *BatchNorm2d) Params() []*autograd.Param {
	return []*autograd.Param{b.Gamma, b.Beta}
}

// LayerNorm normalizes the last dimension of 2-D activations.
type LayerNorm struct {
	Gamma, Beta *autograd.Param
	Eps         float64
}

// NewLayerNorm builds a LayerNorm over width m.
func NewLayerNorm(name string, m int) *LayerNorm {
	return &LayerNorm{
		Gamma: autograd.NewParam(name+".gamma", tensor.Ones(m)),
		Beta:  autograd.NewParam(name+".beta", tensor.New(m)),
		Eps:   1e-5,
	}
}

// Forward normalizes x [n, m].
func (l *LayerNorm) Forward(ctx *Ctx, x *autograd.Var) *autograd.Var {
	return autograd.LayerNorm(x, ctx.Tape.Watch(l.Gamma), ctx.Tape.Watch(l.Beta), l.Eps)
}

// Params implements Module.
func (l *LayerNorm) Params() []*autograd.Param {
	return []*autograd.Param{l.Gamma, l.Beta}
}

// Embedding maps integer ids to dense rows of a trainable table — the
// dominant structure of recommendation models (§3.1.5).
type Embedding struct {
	Table *autograd.Param // [vocab, dim]
}

// NewEmbedding builds an embedding table with N(0, 0.01²) init, the NCF
// reference initialization.
func NewEmbedding(name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	return &Embedding{Table: autograd.NewParam(name+".table", tensor.Randn(rng, 0.01, vocab, dim))}
}

// Forward gathers rows for ids, returning [len(ids), dim].
func (e *Embedding) Forward(ctx *Ctx, ids []int) *autograd.Var {
	return autograd.GatherRows(ctx.Tape.Watch(e.Table), ids)
}

// Params implements Module.
func (e *Embedding) Params() []*autograd.Param {
	return []*autograd.Param{e.Table}
}

// MLP is a stack of Linear+ReLU layers with a linear final layer.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer widths (len ≥ 2).
func NewMLP(name string, widths []int, rng *tensor.RNG) *MLP {
	m := &MLP{}
	for i := 0; i+1 < len(widths); i++ {
		m.Layers = append(m.Layers, NewLinear(name+nameIndex(i), widths[i], widths[i+1], true, rng))
	}
	return m
}

func nameIndex(i int) string {
	return "." + strconv.Itoa(i)
}

// Forward applies the MLP with ReLU between layers (none after the last).
func (m *MLP) Forward(ctx *Ctx, x *autograd.Var) *autograd.Var {
	for i, l := range m.Layers {
		x = l.Forward(ctx, x)
		if i+1 < len(m.Layers) {
			x = autograd.ReLU(x)
		}
	}
	return x
}

// Params implements Module.
func (m *MLP) Params() []*autograd.Param {
	var out []*autograd.Param
	for _, l := range m.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

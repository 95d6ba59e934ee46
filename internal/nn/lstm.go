package nn

import (
	"repro/internal/autograd"
	"repro/internal/tensor"
)

// LSTM is a single-layer long short-term memory cell, the recurrent unit of
// the GNMT benchmark (§3.1.3: 8-layer encoder/decoder of 1024-cell LSTMs;
// our reproduction uses the same cell at reduced width/depth).
//
// Gate layout in the fused weight matrices is [input, forget, cell, output].
type LSTM struct {
	Wx     *autograd.Param // [in, 4H]
	Wh     *autograd.Param // [H, 4H]
	B      *autograd.Param // [4H]
	Hidden int
}

// NewLSTM builds an LSTM with Xavier init and forget-gate bias 1.0 (the
// standard trick that stabilizes early training).
func NewLSTM(name string, in, hidden int, rng *tensor.RNG) *LSTM {
	l := &LSTM{
		Wx:     autograd.NewParam(name+".wx", tensor.Randn(rng, xavierStd(in, hidden), in, 4*hidden)),
		Wh:     autograd.NewParam(name+".wh", tensor.Randn(rng, xavierStd(hidden, hidden), hidden, 4*hidden)),
		B:      autograd.NewParam(name+".b", tensor.New(4*hidden)),
		Hidden: hidden,
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B.Value.Data[j] = 1
	}
	return l
}

// State is the (h, c) pair carried between timesteps.
type State struct {
	H, C *autograd.Var
}

// ZeroState returns an all-zero state for batch size n.
func (l *LSTM) ZeroState(n int) State {
	return State{
		H: autograd.Const(tensor.New(n, l.Hidden)),
		C: autograd.Const(tensor.New(n, l.Hidden)),
	}
}

// Step advances the cell one timestep with input x [n, in].
func (l *LSTM) Step(ctx *Ctx, x *autograd.Var, s State) State {
	h := l.Hidden
	gates := autograd.AddRowVec(
		autograd.Add(
			autograd.MatMul(x, ctx.Tape.Watch(l.Wx)),
			autograd.MatMul(s.H, ctx.Tape.Watch(l.Wh)),
		),
		ctx.Tape.Watch(l.B),
	)
	i := autograd.Sigmoid(autograd.SliceCols(gates, 0, h))
	f := autograd.Sigmoid(autograd.SliceCols(gates, h, 2*h))
	g := autograd.Tanh(autograd.SliceCols(gates, 2*h, 3*h))
	o := autograd.Sigmoid(autograd.SliceCols(gates, 3*h, 4*h))
	c := autograd.Add(autograd.Mul(f, s.C), autograd.Mul(i, g))
	hOut := autograd.Mul(o, autograd.Tanh(c))
	return State{H: hOut, C: c}
}

// Params implements Module.
func (l *LSTM) Params() []*autograd.Param {
	return []*autograd.Param{l.Wx, l.Wh, l.B}
}

// StackedLSTM is a multi-layer LSTM with optional residual connections
// between layers (GNMT uses skip connections across its 8 layers).
type StackedLSTM struct {
	Cells    []*LSTM
	Residual bool
}

// NewStackedLSTM builds layers LSTM cells; the first maps in→hidden and the
// rest hidden→hidden.
func NewStackedLSTM(name string, in, hidden, layers int, residual bool, rng *tensor.RNG) *StackedLSTM {
	s := &StackedLSTM{Residual: residual}
	for i := 0; i < layers; i++ {
		width := hidden
		if i == 0 {
			width = in
		}
		s.Cells = append(s.Cells, NewLSTM(name+nameIndex(i), width, hidden, rng))
	}
	return s
}

// ZeroState returns a per-layer zero state for batch size n.
func (s *StackedLSTM) ZeroState(n int) []State {
	out := make([]State, len(s.Cells))
	for i, c := range s.Cells {
		out[i] = c.ZeroState(n)
	}
	return out
}

// Step advances all layers one timestep, replacing each layer's entry of
// states with its new state, and returns the top-layer output. Updating in
// place lets a recurrent loop run on one states slice, allocation-free.
func (s *StackedLSTM) Step(ctx *Ctx, x *autograd.Var, states []State) *autograd.Var {
	cur := x
	for i, cell := range s.Cells {
		states[i] = cell.Step(ctx, cur, states[i])
		out := states[i].H
		if s.Residual && i > 0 {
			out = autograd.Add(out, cur)
		}
		cur = out
	}
	return cur
}

// Params implements Module.
func (s *StackedLSTM) Params() []*autograd.Param {
	var out []*autograd.Param
	for _, c := range s.Cells {
		out = append(out, c.Params()...)
	}
	return out
}

// Package nn provides the neural-network layer library used by the MLPerf
// benchmark models: parameterized modules (Linear, Conv2d, BatchNorm2d,
// LayerNorm, Embedding, LSTM, MultiHeadAttention) with standard
// initializations, built on the autograd substrate.
package nn

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Ctx carries per-forward-pass state: the autograd tape, the train/eval
// mode (batch norm, dropout), and the RNG used for stochastic layers.
type Ctx struct {
	Tape  *autograd.Tape
	Train bool
	RNG   *tensor.RNG
}

// NewCtx builds a context for one forward/backward step.
func NewCtx(tape *autograd.Tape, train bool, rng *tensor.RNG) *Ctx {
	return &Ctx{Tape: tape, Train: train, RNG: rng}
}

// Module is anything owning trainable parameters.
type Module interface {
	Params() []*autograd.Param
}

// CollectParams flattens the parameters of several modules.
func CollectParams(ms ...Module) []*autograd.Param {
	var out []*autograd.Param
	for _, m := range ms {
		out = append(out, m.Params()...)
	}
	return out
}

// GradNorm returns the global L2 norm across all parameter gradients.
func GradNorm(params []*autograd.Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGradNorm scales all gradients so the global norm is at most maxNorm,
// returning the pre-clip norm.
func ClipGradNorm(params []*autograd.Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}

// heStd returns the He (Kaiming) initialization standard deviation for a
// layer with the given fan-in, appropriate before ReLU nonlinearities.
func heStd(fanIn int) float64 { return math.Sqrt(2 / float64(fanIn)) }

// xavierStd returns the Glorot initialization standard deviation.
func xavierStd(fanIn, fanOut int) float64 { return math.Sqrt(2 / float64(fanIn+fanOut)) }

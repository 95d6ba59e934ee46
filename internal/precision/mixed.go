package precision

// Mixed-precision training à la the paper's §2.2.3 numerics dimension:
// bf16 compute with fp32 accumulation, float64 master weights, and dynamic
// loss scaling. The recipe per step:
//
//  1. BeginStep — snapshot the float64 master weights, then round the live
//     parameter values to the compute format (bf16), so the forward pass
//     sees exactly the weights a reduced-precision accelerator would.
//  2. Forward + tape.BackwardScaled(loss, mp.Scale()) — the loss gradient
//     is seeded with the current scale so small gradients stay
//     representable through the reduced-precision backward products.
//  3. Apply — restore the master weights, scan the (scaled) gradients for
//     overflow; on overflow skip the update and halve the scale, otherwise
//     divide the scale out (exactly — scales are powers of two) and run
//     the optimizer step against the float64 masters, growing the scale
//     after growthInterval consecutive good steps.
//
// Every decision in the loop (overflow, scale value, skip/apply) is a
// deterministic function of the gradients, so data-parallel replicas that
// all-reduce identical gradients make identical decisions — the
// engine's bit-identical-across-worker-counts contract survives mixed
// precision unchanged.

import (
	"math"

	"repro/internal/autograd"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// The dynamic-loss-scaling recipe: scale 2¹⁵, doubled after 200
// consecutive good steps, halved on overflow, clamped to [1, 2²⁴]. Every
// factor is a power of two, so scaling and unscaling are exact in binary
// floating point.
const (
	initScale      = 1 << 15
	growth         = 2
	backoff        = 0.5
	growthInterval = 200
	minScale       = 1
	maxScale       = 1 << 24
)

// MPState is the trainer's dynamic-loss-scaling position: the current
// scale, the consecutive-good-step counter that gates growth, and the
// cumulative statistics. A checkpoint (internal/ckpt) persists it so a
// resumed run makes exactly the skip/backoff/growth decisions the
// uninterrupted run would have.
type MPState struct {
	Scale    float64 // current loss scale
	Good     int     // consecutive non-overflow steps since the last scale change
	Steps    uint64  // applied optimizer steps
	Skipped  uint64  // steps skipped due to gradient overflow
	Growths  uint64  // scale increases
	Backoffs uint64  // scale decreases
}

// MP drives one model's mixed-precision training loop. It is not
// goroutine-safe; data-parallel engines hold one MP per replica.
type MP struct {
	params []*autograd.Param
	master [][]float64 // float64 weight snapshot, restored each Apply
	st     MPState
}

// NewMP builds a trainer over the given parameters at the recipe's
// initial loss scale.
func NewMP(params []*autograd.Param) *MP {
	mp := &MP{params: params, st: MPState{Scale: initScale}}
	mp.master = make([][]float64, len(params))
	for i, p := range params {
		mp.master[i] = make([]float64, p.Value.Size())
	}
	return mp
}

// Scale returns the current loss scale — the seed for
// Tape.BackwardScaled.
func (mp *MP) Scale() float64 { return mp.st.Scale }

// State captures the trainer's loss-scaling position.
func (mp *MP) State() MPState { return mp.st }

// SetState restores a position captured by State. The master-weight
// snapshot needs no restoring: BeginStep rebuilds it from the live
// parameters at the top of every step.
func (mp *MP) SetState(st MPState) { mp.st = st }

// BeginStep snapshots the float64 master weights and rounds the live
// parameter values to the compute format, so the forward/backward pass
// runs against reduced-precision weights. Must be paired with Apply.
func (mp *MP) BeginStep() {
	for i, p := range mp.params {
		copy(mp.master[i], p.Value.Data)
		QuantizeSlice(p.Value.Data, BF16)
	}
}

// Apply finishes the step BeginStep opened: restores the master weights,
// then either applies the optimizer update with the scale divided out of
// the gradients (returning true), or — when any gradient overflowed to
// NaN/Inf — skips the update and backs the scale off (returning false).
// The caller's gradients are expected to be scaled by Scale() (via
// BackwardScaled); a successful Apply leaves them unscaled. This is the
// one place the loss scale leaves the gradient: optimizers only ever see
// unscaled gradients.
func (mp *MP) Apply(o opt.Optimizer) bool {
	for i, p := range mp.params {
		copy(p.Value.Data, mp.master[i])
	}
	st := &mp.st
	if mp.overflowed() {
		st.Good = 0
		if s := st.Scale * backoff; s >= minScale {
			st.Scale = s
			st.Backoffs++
		}
		st.Skipped++
		return false
	}
	inv := 1 / st.Scale // power of two: exact
	for _, p := range mp.params {
		tensor.ScaleVec(p.Grad.Data, p.Grad.Data, inv)
	}
	o.Step()
	st.Steps++
	st.Good++
	if st.Good >= growthInterval {
		if s := st.Scale * growth; s <= maxScale {
			st.Scale = s
			st.Growths++
		}
		st.Good = 0
	}
	return true
}

// overflowed reports whether any accumulated gradient is NaN or Inf — the
// dynamic-loss-scaling overflow signal.
func (mp *MP) overflowed() bool {
	for _, p := range mp.params {
		for _, g := range p.Grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return true
			}
		}
	}
	return false
}

// Numerics is one training run's numeric regime, named by its compute
// dtype alone: f64 is the bitwise reference, f32 is reduced compute (wide
// enough to train these models without loss scaling), and bf16 is reduced
// compute plus the mixed-precision recipe (bf16 weight rounds over float64
// masters, dynamic loss scaling). The zero value is the f64 regime.
type Numerics struct {
	// Compute is the tape dtype for the MatMul-class ops.
	Compute tensor.DType
}

// Mixed reports whether the regime layers the mixed-precision recipe on
// its compute dtype: true for bf16.
func (n Numerics) Mixed() bool { return n.Compute == tensor.BFloat16 }

// NewTrainer returns the MP trainer for this regime, or nil when the
// regime is not mixed — callers treat a nil trainer as the plain
// ZeroGrad/Backward/Step loop.
func (n Numerics) NewTrainer(params []*autograd.Param) *MP {
	if !n.Mixed() {
		return nil
	}
	return NewMP(params)
}

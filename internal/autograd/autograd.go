// Package autograd implements tape-based reverse-mode automatic
// differentiation over tensor values. It provides the 32 differentiable
// operations the MLPerf reference models are composed of, playing the role
// of PyTorch/TensorFlow autograd in the paper's reference implementations:
//
//   - elementwise: Add, Mul, Scale, ReLU, Sigmoid, Tanh;
//   - layout: AddRowVec, MulColVec, Reshape, ConcatCols, ConcatRows,
//     SliceCols, SliceRows, GatherRows, SpatialRows, Transpose;
//   - dense: MatMul, Linear, RowSum, Sum, SoftmaxRows, Attention, LayerNorm;
//   - convolutional: Conv2D, GlobalAvgPool2D, BatchNorm2D, RoIAlign;
//   - losses: SoftmaxCrossEntropy, BCEWithLogits, MSE, SmoothL1,
//     SoftCrossEntropy.
//
// Each op has one forward, and it records on the tape of its first
// differentiable operand: an op whose operands are all constants panics.
//
// Usage pattern (one tape per training step):
//
//	tape := autograd.NewTape()
//	x := autograd.Const(batch)
//	w := tape.Watch(param)           // leaf: grads accumulate into param.Grad
//	loss := autograd.SoftmaxCrossEntropy(autograd.MatMul(x, w), labels)
//	tape.Backward(loss)
//
// # Steady-state replay
//
// Training steps execute the same op sequence with the same shapes every
// step, so the tape is built to be reused: Reset rewinds it without
// discarding anything, and each op reclaims the node — output tensors,
// gradient buffers, scratch space, cached kernel closures — it used at the
// same position last pass. A warm tape therefore runs a full
// forward/backward step with zero heap allocations, the property the
// BenchmarkStepAllocs* benchmarks and internal/pipeline's steady-state
// tests assert. Tapes built with NewTapeIn draw their tensor buffers from
// an arena, so even cold growth recycles pooled memory.
//
//	tape := autograd.NewTapeIn(workerArena)
//	for step := 0; step < N; step++ {
//		tape.Reset()
//		loss := model.Loss(tape, batch(step))
//		tape.Backward(loss)
//		opt.Step()
//	}
package autograd

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/tensor"
)

// Param is a trainable parameter: a value tensor plus a persistent gradient
// accumulator that optimizers consume. Parameters outlive any single tape.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient buffer.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Tape records the backward pass of each differentiable op executed in a
// forward pass and replays it in reverse on Backward. Nodes are pooled:
// Reset rewinds the cursor and subsequent ops reuse the node (and all its
// buffers) recorded at the same position on the previous pass.
type Tape struct {
	nodes []*node
	n     int // active node count this pass

	consts []*Var
	nc     int // active const count this pass

	leaves []*Var
	nl     int // active pooled-leaf count this pass

	watch map[*Param]*Var // cached leaf Vars, stable across passes

	alloc arena.Allocator // optional buffer source for node tensors

	dtype tensor.DType // compute regime for the MatMul-class ops
}

// NewTape returns an empty tape whose buffers come from the Go heap.
func NewTape() *Tape { return &Tape{} }

// NewTapeIn returns an empty tape whose node tensors are drawn from (and,
// when shapes change, released back to) the given arena allocator. The
// allocator must not be shared with goroutines that run concurrently with
// this tape unless it is itself goroutine-safe.
func NewTapeIn(a arena.Allocator) *Tape { return &Tape{alloc: a} }

// Reset rewinds the tape for the next forward/backward pass, keeping every
// node and buffer for reuse — including the compute dtype, which is a
// property of the training run, not of one pass. It must not be called
// while Vars from the previous pass are still in use.
func (t *Tape) Reset() {
	t.n = 0
	t.nc = 0
	t.nl = 0
}

// SetDType selects the compute regime for the MatMul-class ops recorded
// after the call: tensor.Float64 (the default — the bitwise-verified
// reference path, unchanged), or tensor.Float32 / tensor.BFloat16, which
// stage operands into pooled float32 buffers, run the f32 GEMM engine
// (bf16-rounding the operands first under BFloat16), and widen results
// back — while parameters, gradients, and every non-GEMM op stay float64.
// MatMul is the staged op. Attention's inner products are NOT staged: the
// node runs its one float64 core in every regime, and of an attention
// layer only the four projections, being MatMuls, round at compute
// precision.
// Reduced-dtype results are deterministic at any worker count but not
// bit-equal to the reference; they are verified statistically
// (core.StatCheck). Call before the first pass; switching dtype between
// passes is allowed (slots restage on the next forward).
func (t *Tape) SetDType(d tensor.DType) { t.dtype = d }

// Len returns the number of recorded ops this pass (useful in tests).
func (t *Tape) Len() int { return t.n }

// Backward seeds the scalar loss gradient with 1 and runs all recorded
// backward steps in reverse order. It panics if loss is not scalar.
func (t *Tape) Backward(loss *Var) { t.BackwardScaled(loss, 1) }

// BackwardScaled is Backward with a caller-chosen gradient seed: every
// accumulated gradient comes out multiplied by seed. Mixed-precision
// training seeds with the dynamic loss scale so small gradients survive
// the bf16 rounding of the reduced-precision backward products; the
// optimizer divides the scale back out before the update. With seed 1 it
// is exactly Backward.
//
//mlperfvet:hotpath
func (t *Tape) BackwardScaled(loss *Var, seed float64) {
	if loss.Value.Size() != 1 {
		panic(fmt.Sprintf("autograd: Backward requires a scalar loss, got shape %v", loss.Value.Shape))
	}
	if loss.Grad != nil {
		loss.Grad.Data[0] = seed
	}
	for i := t.n - 1; i >= 0; i-- {
		nd := t.nodes[i]
		nd.back(nd)
	}
}

// Var is a node in the computation graph: a value, an optional gradient
// buffer, and the tape it was recorded on. Vars with a nil tape are
// constants and contribute no backward work. Vars produced by ops on a
// tape are owned by that tape and are valid until its next Reset.
type Var struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	tape  *Tape
}

// Watch registers a parameter as a differentiable leaf on the tape. The
// returned Var shares the parameter's gradient buffer, so gradients
// accumulate across Backward calls until Param.ZeroGrad. Watching the same
// parameter again returns the cached leaf.
func (t *Tape) Watch(p *Param) *Var {
	if v, ok := t.watch[p]; ok {
		return v
	}
	if t.watch == nil {
		t.watch = make(map[*Param]*Var)
	}
	v := &Var{Value: p.Value, Grad: p.Grad, tape: t}
	t.watch[p] = v
	return v
}

// Leaf creates a differentiable leaf with a private gradient buffer.
// It is mainly used by tests and by ops that need an internal grad sink.
func (t *Tape) Leaf(value *tensor.Tensor) *Var {
	return &Var{Value: value, Grad: tensor.New(value.Shape...), tape: t}
}

// BackwardSeeded replays every recorded backward step in reverse order
// WITHOUT seeding a loss gradient. Callers must have accumulated output
// gradients into the relevant Vars' Grad buffers first — the contract the
// pipeline-parallel engine uses on non-final stages, where the "loss
// gradient" arrives from the downstream stage as an activation gradient.
func (t *Tape) BackwardSeeded() {
	for i := t.n - 1; i >= 0; i-- {
		nd := t.nodes[i]
		nd.back(nd)
	}
}

// LeafOf is Leaf with tape-pooled storage: the returned Var (and its zeroed
// gradient buffer) is reused at the same position after each Reset, so
// steady-state loops can wrap boundary activations as differentiable leaves
// without allocating. The Var is valid until the next Reset; the gradient
// buffer is drawn from the tape's arena when it has one.
func (t *Tape) LeafOf(value *tensor.Tensor) *Var {
	var v *Var
	if t.nl < len(t.leaves) {
		v = t.leaves[t.nl]
	} else {
		v = &Var{}
		t.leaves = append(t.leaves, v)
	}
	t.nl++
	v.Value, v.tape = value, t
	t.ensureTensor(&v.Grad, value.Shape...)
	v.Grad.Zero()
	return v
}

// Const wraps a tensor as a non-differentiable input (e.g. a data batch).
func Const(value *tensor.Tensor) *Var { return &Var{Value: value} }

// ConstOf is Const with tape-pooled storage: the returned Var is reused at
// the same position after each Reset, so steady-state loops wrap their
// input batches without allocating. The Var is valid until the next Reset.
func (t *Tape) ConstOf(value *tensor.Tensor) *Var {
	var v *Var
	if t.nc < len(t.consts) {
		v = t.consts[t.nc]
	} else {
		v = &Var{}
		t.consts = append(t.consts, v)
	}
	t.nc++
	v.Value, v.Grad, v.tape = value, nil, nil
	return v
}

// Scalar returns the single element of a size-1 Var.
func (v *Var) Scalar() float64 {
	if v.Value.Size() != 1 {
		panic(fmt.Sprintf("autograd: Scalar on shape %v", v.Value.Shape))
	}
	return v.Value.Data[0]
}

// tapeOf picks the tape for an op's output: the first operand that is
// differentiable. Every op records on a tape, so an op whose operands are
// all constants panics here, before it computes anything.
func tapeOf(vs ...*Var) *Tape {
	for _, v := range vs {
		if v != nil && v.tape != nil {
			return v.tape
		}
	}
	panic("autograd: every operand is a constant; wrap at least one with Tape.Watch, Leaf or LeafOf so the op has a tape to record on")
}

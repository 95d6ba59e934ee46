package autograd

import (
	"repro/internal/tensor"
)

// Node kinds exist only to invalidate cached kernel closures when a pooled
// slot is reclaimed by a different op. Ops without cached closures share
// opGeneric; the closure-carrying ops get their own kind so a slot that
// changes op never runs a stale kernel.
const (
	opGeneric uint8 = iota
	opConv
)

// node is one pooled op record on a tape. One struct serves every op: each
// op builder fully (re)initializes the fields its backward function reads,
// while the backing arrays (output tensors, gradient buffers, scratch,
// index and float slices) are retained across Reset so a warm pass
// allocates nothing. The back function is always a package-level function
// — never a per-step closure — so recording it is allocation-free.
type node struct {
	kind uint8
	back func(*node)

	a, b, c *Var   // operands (c: optional third operand, e.g. conv bias)
	vars    []*Var // variadic operands (concats)
	out     Var    // pooled output

	t0, t1, t2 *tensor.Tensor // pooled scratch (e.g. conv dx/dw/db)
	aux        *tensor.Tensor // caller-owned tensor retained for backward

	// Reduced-precision staging buffers (MatMul under a non-Float64 tape
	// dtype): forward operands, forward output (reused for the converted
	// upstream gradient in backward), and the two gradient products. Five
	// distinct buffers because the backward products read lpa/lpb/lpo
	// concurrently — results cannot alias operands. Heap-backed and
	// shape-stable across Reset, so warm replays stage at 0 allocs/op.
	lpa, lpb, lpo, lpda, lpdb *tensor.F32

	idx       []int     // pooled ints: labels, gather indices, argmax
	buf, buf2 []float64 // pooled floats: xhat, masks, probs, saved stats

	i0, i1 int
	f0     float64
	flag   bool

	// Cached parallel-kernel closures. Created once per (slot, kind) and
	// reused every pass: they capture only the node pointer and read the
	// current operands at call time.
	fwd, bwd, bwd2 func(lo, hi int)

	tape *Tape
}

// node reclaims (or grows) the next node slot for this pass.
func (t *Tape) node(kind uint8, back func(*node), a, b, c *Var) *node {
	var nd *node
	if t.n < len(t.nodes) {
		nd = t.nodes[t.n]
	} else {
		nd = &node{}
		t.nodes = append(t.nodes, nd)
	}
	t.n++
	if nd.kind != kind {
		nd.kind = kind
		nd.fwd, nd.bwd, nd.bwd2 = nil, nil, nil
	}
	nd.back = back
	nd.a, nd.b, nd.c = a, b, c
	nd.tape = t
	return nd
}

// sameShape reports whether a tensor's shape equals the given dims.
func sameShape(t *tensor.Tensor, shape []int) bool {
	if len(t.Shape) != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Shape[i] != d {
			return false
		}
	}
	return true
}

// numel returns the element count of a shape.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// newTensor allocates a tensor from the tape's arena (or the heap). The
// caller's node owns the tensor; node recycling (Tape.Reset slot replay /
// ReleaseBuffers) releases it back to the tape's arena.
func (t *Tape) newTensor(shape ...int) *tensor.Tensor {
	if t.alloc != nil {
		return tensor.NewIn(t.alloc, shape...) //mlperfvet:owns — released by node recycling
	}
	return tensor.New(shape...)
}

// ensureTensor makes *pt a tensor of the given shape, reusing the existing
// buffer when it holds the new element count (tensor.Resize: only the
// header is rewritten) and releasing arena-backed buffers it replaces.
// Contents are unspecified; callers overwrite or zero as their op
// requires.
func (t *Tape) ensureTensor(pt **tensor.Tensor, shape ...int) *tensor.Tensor {
	cur := *pt
	if cur != nil {
		if sameShape(cur, shape) || cur.Resize(shape...) {
			return cur
		}
		if cur.Arena() {
			cur.Release()
		}
	}
	cur = t.newTensor(shape...)
	*pt = cur
	return cur
}

// result binds and returns the node's pooled output Var with the given
// shape. The value buffer is NOT cleared (ops must fully overwrite or zero
// it); the gradient buffer is zeroed, matching the fresh-allocation
// semantics the backward contract assumes.
func (t *Tape) result(nd *node, shape ...int) *Var {
	v := &nd.out
	v.tape = t
	t.ensureTensor(&v.Value, shape...)
	t.ensureTensor(&v.Grad, shape...)
	v.Grad.Zero()
	return v
}

// ReleaseBuffers returns every arena-backed tensor the tape's node pool
// holds (outputs, gradients, scratch) to the tape's arena and clears the
// pool. Owners tearing down a steady-state loop (e.g. pipeline.Engine.Close)
// call it so a shared arena recycles the tape's working set — the
// dominant buffer population — for the next loop. The tape itself remains
// usable; the next pass simply rebuilds cold.
func (t *Tape) ReleaseBuffers() {
	for _, nd := range t.nodes {
		releaseIfArena(&nd.out.Value)
		releaseIfArena(&nd.out.Grad)
		releaseIfArena(&nd.t0)
		releaseIfArena(&nd.t1)
		releaseIfArena(&nd.t2)
	}
	t.nodes = t.nodes[:0]
	t.n = 0
	t.nc = 0
	for _, v := range t.leaves {
		releaseIfArena(&v.Grad)
	}
	t.leaves = t.leaves[:0]
	t.nl = 0
}

// releaseIfArena releases *pt when it is an arena-backed tensor the tape
// allocated (views and caller-owned tensors are left alone) and clears
// the field either way.
func releaseIfArena(pt **tensor.Tensor) {
	if *pt != nil && (*pt).Arena() {
		(*pt).Release()
	}
	*pt = nil
}

// ensureF32 makes *pt a float32 staging tensor of the given shape,
// reusing the existing buffer when its capacity covers the element count
// (the buffer is always one NewF32 made here, so its capacity is its own).
// Contents are unspecified; callers overwrite via FromF64 or a GEMM call.
func ensureF32(pt **tensor.F32, shape ...int) *tensor.F32 {
	cur := *pt
	if n := numel(shape); cur != nil && n <= cap(cur.Data) {
		cur.Data = cur.Data[:n]
		cur.Shape = append(cur.Shape[:0], shape...)
		return cur
	}
	cur = tensor.NewF32(shape...)
	*pt = cur
	return cur
}

// intsCap returns s resized to n, reusing its capacity.
func intsCap(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// floatsCap returns s resized to n, reusing its capacity.
func floatsCap(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

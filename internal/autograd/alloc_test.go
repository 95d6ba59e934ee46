package autograd

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestTapeReplayAllocFree asserts the slot-replay contract for the
// detection-head ops converted last (RoIAlign, SpatialRows) inside a
// realistic op sequence: once the tape is warm, a full forward/backward
// pass over conv → ReLU → {SpatialRows head, RoIAlign head} → losses
// performs zero heap allocations, so Mask R-CNN-style steps can run
// alloc-free like the rest of the suite.
func TestTapeReplayAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	rng := tensor.NewRNG(1)
	x := NewParam("x", tensor.Randn(rng, 1, 2, 4, 6, 6))
	w := NewParam("w", tensor.Randn(rng, 0.3, 8, 4, 3, 3))
	boxes := []RoIBox{
		{Batch: 0, X1: 0.5, Y1: 0.5, X2: 4.5, Y2: 4.5},
		{Batch: 1, X1: 1.0, Y1: 0.0, X2: 5.0, Y2: 3.0},
	}
	srMask := tensor.Randn(rng, 1, 2*6*6*2, 4)
	roiMask := tensor.Randn(rng, 1, 2, 8, 3, 3)

	tape := NewTape()
	step := func() {
		x.ZeroGrad()
		w.ZeroGrad()
		tape.Reset()
		feat := ReLU(Conv2D(tape.Watch(x), tape.Watch(w), nil, 1, 1))
		rows := SpatialRows(feat, 4)
		roi := RoIAlign(feat, boxes, 3)
		loss := Add(Sum(Mul(rows, tape.ConstOf(srMask))), Sum(Mul(roi, tape.ConstOf(roiMask))))
		tape.Backward(loss)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Errorf("warm RoIAlign/SpatialRows pass allocates %v per step, want 0", n)
	}
}

// TestMatMulTapeAllocFree asserts that the MatMul op stays allocation-free
// on warm tape replays now that it drives the blocked GEMM engine
// directly (no cached row closures): the engine's serial dispatch builds
// no closures and its pack buffers come from a shared arena, at both a
// packed-path shape (64×64·64) and a naive-dispatch shape (the 1-wide
// output head). Forward and both backward GEMMs are covered.
func TestMatMulTapeAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	rng := tensor.NewRNG(3)
	x := NewParam("x", tensor.Randn(rng, 1, 64, 64))
	w1 := NewParam("w1", tensor.Randn(rng, 0.3, 64, 64))
	w2 := NewParam("w2", tensor.Randn(rng, 0.3, 64, 1))

	tape := NewTape()
	step := func() {
		x.ZeroGrad()
		w1.ZeroGrad()
		w2.ZeroGrad()
		tape.Reset()
		h := Tanh(MatMul(tape.Watch(x), tape.Watch(w1)))
		tape.Backward(Sum(MatMul(h, tape.Watch(w2))))
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Errorf("warm MatMul tape pass allocates %v per step, want 0", n)
	}
}

// TestLeafOfBackwardSeeded checks the stage-boundary contract the pipeline
// engine builds on: splitting a chain across two tapes — downstream wraps
// the upstream activation with LeafOf, and the upstream tape replays via
// BackwardSeeded after the boundary gradient is copied in — produces
// bit-identical parameter gradients to the single-tape run.
func TestLeafOfBackwardSeeded(t *testing.T) {
	rng := tensor.NewRNG(2)
	mk := func() (*Param, *Param) {
		r := tensor.NewRNG(7)
		return NewParam("w1", tensor.Randn(r, 0.5, 3, 4)), NewParam("w2", tensor.Randn(r, 0.5, 4, 2))
	}
	x := tensor.Randn(rng, 1, 5, 3)

	// Single-tape reference.
	w1, w2 := mk()
	ref := NewTape()
	h := Tanh(MatMul(Const(x), ref.Watch(w1)))
	ref.Backward(Sum(MatMul(h, ref.Watch(w2))))

	// Two-stage split: stage 0 produces h, stage 1 consumes it as a leaf.
	s1, s2 := mk()
	up, down := NewTape(), NewTape()
	hUp := Tanh(MatMul(Const(x), up.Watch(s1)))
	hLeaf := down.LeafOf(hUp.Value)
	down.Backward(Sum(MatMul(hLeaf, down.Watch(s2))))
	hUp.Grad.AddInPlace(hLeaf.Grad) // boundary activation-gradient transfer
	up.BackwardSeeded()

	for i, g := range w1.Grad.Data {
		if s1.Grad.Data[i] != g {
			t.Fatalf("w1 grad elem %d: staged %g, reference %g", i, s1.Grad.Data[i], g)
		}
	}
	for i, g := range w2.Grad.Data {
		if s2.Grad.Data[i] != g {
			t.Fatalf("w2 grad elem %d: staged %g, reference %g", i, s2.Grad.Data[i], g)
		}
	}

	// LeafOf pools: after Reset the same Var (and grad buffer) is reused.
	v1 := down.leaves[0]
	down.Reset()
	if down.LeafOf(x) != v1 {
		t.Fatal("LeafOf did not reuse the pooled leaf after Reset")
	}
}

// TestAttentionTapeAllocFree: the attention node keeps its probabilities
// and scratch in the pooled slot, so a warm forward/backward allocates
// nothing, self-attention (one Var three times, causal) and cross-attention
// (tq != tk) alike.
func TestAttentionTapeAllocFree(t *testing.T) {
	rng := tensor.NewRNG(4)
	x := NewParam("x", tensor.Randn(rng, 1, 4*9, 24))
	mem := NewParam("mem", tensor.Randn(rng, 1, 4*8, 24))
	tape := NewTape()
	step := func() {
		x.ZeroGrad()
		mem.ZeroGrad()
		tape.Reset()
		xv, mv := tape.Watch(x), tape.Watch(mem)
		h := Attention(xv, xv, xv, 4, 9, 9, 2, true)
		tape.Backward(Sum(Attention(h, mv, mv, 4, 9, 8, 2, false)))
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Errorf("warm attention nodes allocate %v per pass, want 0", n)
	}
}

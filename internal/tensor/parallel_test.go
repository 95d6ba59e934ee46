package tensor

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// workerCounts are the pool widths the determinism tests sweep; 1 is the
// serial reference the others must match bit for bit.
var workerCounts = []int{2, 3, 4, 8}

// withWorkers runs f at the given pool width, restoring the default after.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(old)
	f()
}

// sameBits fails unless a and b are bitwise-identical tensors.
func sameBits(t *testing.T, label string, workers int, a, b *Tensor) {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%s workers=%d: size %d vs %d", label, workers, len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s workers=%d: element %d differs: %v vs %v (serial)",
				label, workers, i, a.Data[i], b.Data[i])
		}
	}
}

// sparsify zeroes a fraction of entries so the kernels' zero-skip branches
// are exercised under sharding too.
func sparsify(r *RNG, x *Tensor) {
	for i := range x.Data {
		if r.Float64() < 0.2 {
			x.Data[i] = 0
		}
	}
}

func TestMatMulParallelBitIdentical(t *testing.T) {
	rng := NewRNG(7)
	// Model-shaped operands: batch x hidden times hidden x hidden.
	a := Randn(rng, 1, 96, 128)
	b := Randn(rng, 1, 128, 80)
	sparsify(rng, a)
	var serial *Tensor
	withWorkers(t, 1, func() { serial = MatMul(a, b) })
	for _, w := range workerCounts {
		withWorkers(t, w, func() { sameBits(t, "MatMul", w, MatMul(a, b), serial) })
	}
}

func TestMatMulTransAParallelBitIdentical(t *testing.T) {
	rng := NewRNG(8)
	a := Randn(rng, 1, 128, 96)
	b := Randn(rng, 1, 128, 80)
	sparsify(rng, a)
	var serial *Tensor
	withWorkers(t, 1, func() { serial = MatMulTransA(a, b) })
	for _, w := range workerCounts {
		withWorkers(t, w, func() { sameBits(t, "MatMulTransA", w, MatMulTransA(a, b), serial) })
	}
}

func TestMatMulTransBParallelBitIdentical(t *testing.T) {
	rng := NewRNG(9)
	a := Randn(rng, 1, 96, 128)
	b := Randn(rng, 1, 80, 128)
	var serial *Tensor
	withWorkers(t, 1, func() { serial = MatMulTransB(a, b) })
	for _, w := range workerCounts {
		withWorkers(t, w, func() { sameBits(t, "MatMulTransB", w, MatMulTransB(a, b), serial) })
	}
}

func TestConv2DParallelBitIdentical(t *testing.T) {
	rng := NewRNG(10)
	x := Randn(rng, 1, 2, 3, 16, 16)
	w := Randn(rng, 1, 8, 3, 3, 3)
	b := Randn(rng, 1, 8)
	var serial *Tensor
	withWorkers(t, 1, func() { serial = Conv2D(x, w, b, 1, 1) })
	for _, wk := range workerCounts {
		withWorkers(t, wk, func() { sameBits(t, "Conv2D", wk, Conv2D(x, w, b, 1, 1), serial) })
	}
}

func TestConv2DBackwardParallelBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	x := Randn(rng, 1, 2, 3, 16, 16)
	w := Randn(rng, 1, 8, 3, 3, 3)
	dout := Randn(rng, 1, 2, 8, 16, 16)
	sparsify(rng, dout) // exercise the g == 0 skip under sharding
	var sdx, sdw, sdb *Tensor
	withWorkers(t, 1, func() { sdx, sdw, sdb = Conv2DBackward(x, w, dout, 1, 1, true) })
	for _, wk := range workerCounts {
		withWorkers(t, wk, func() {
			dx, dw, db := Conv2DBackward(x, w, dout, 1, 1, true)
			sameBits(t, "Conv2DBackward/dx", wk, dx, sdx)
			sameBits(t, "Conv2DBackward/dw", wk, dw, sdw)
			sameBits(t, "Conv2DBackward/db", wk, db, sdb)
		})
	}
}

func TestConv2DBackwardNoBiasParallel(t *testing.T) {
	rng := NewRNG(12)
	x := Randn(rng, 1, 1, 2, 12, 12)
	w := Randn(rng, 1, 6, 2, 3, 3)
	dout := Randn(rng, 1, 1, 6, 12, 12)
	var sdx, sdw *Tensor
	withWorkers(t, 1, func() { sdx, sdw, _ = Conv2DBackward(x, w, dout, 1, 1, false) })
	withWorkers(t, 4, func() {
		dx, dw, db := Conv2DBackward(x, w, dout, 1, 1, false)
		if db != nil {
			t.Fatal("db must stay nil without bias")
		}
		sameBits(t, "Conv2DBackward/dx", 4, dx, sdx)
		sameBits(t, "Conv2DBackward/dw", 4, dw, sdw)
	})
}

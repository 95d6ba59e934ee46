package autograd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestConv2DConstInputSkipsDx pins the backward of a convolution whose
// input needs no gradient (ResNet's stem reads the data batch): it runs
// no dx pass and keeps no dx scratch, and its dw is bit-equal to the same
// convolution over a watched input, serially and on both parallel legs.
func TestConv2DConstInputSkipsDx(t *testing.T) {
	rng := tensor.NewRNG(5)
	x := tensor.Randn(rng, 1, 4, 4, 8, 8)
	w := NewParam("w", tensor.Randn(rng, 0.3, 6, 4, 3, 3))
	b := NewParam("b", tensor.Randn(rng, 0.1, 6))
	mask := tensor.Randn(rng, 1, 4, 6, 8, 8)
	run := func(watchX bool) (nd *node, dw, db *tensor.Tensor) {
		w.ZeroGrad()
		b.ZeroGrad()
		tape := NewTape()
		in := tape.ConstOf(x)
		if watchX {
			in = tape.Leaf(x)
		}
		tape.Backward(Sum(Mul(Conv2D(in, tape.Watch(w), tape.Watch(b), 1, 1), tape.ConstOf(mask))))
		return tape.nodes[0], w.Grad.Clone(), b.Grad.Clone()
	}
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, workers := range []int{1, 4} {
		parallel.SetWorkers(workers)
		label := fmt.Sprintf("workers=%d", workers)
		nd, dwConst, dbConst := run(false)
		if nd.kind != opConv {
			t.Fatalf("%s: node 0 is not the convolution", label)
		}
		if nd.t0 != nil {
			t.Fatalf("%s: a constant input got dx scratch %v", label, nd.t0.Shape)
		}
		ndWatched, dwWatched, dbWatched := run(true)
		if ndWatched.t0 == nil {
			t.Fatalf("%s: a watched input got no dx", label)
		}
		for _, p := range []struct {
			name      string
			got, want *tensor.Tensor
		}{{"dw", dwConst, dwWatched}, {"db", dbConst, dbWatched}} {
			for i, v := range p.want.Data {
				if math.Float64bits(p.got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: %s[%d] = %v over a constant input, %v over a watched one", label, p.name, i, p.got.Data[i], v)
				}
			}
		}
	}
}

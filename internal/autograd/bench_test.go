package autograd

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// BenchmarkLayerNorm times the transformer's normalization at its
// microbatch shape, [36,24]: a warm forward, and the backward function
// alone on the node that forward recorded (BENCH_step.json rows).
func BenchmarkLayerNorm(b *testing.B) {
	rng := tensor.NewRNG(9)
	x := NewParam("x", tensor.Randn(rng, 1, 36, 24))
	gamma, beta := NewParam("g", tensor.Randn(rng, 1, 24)), NewParam("b", tensor.Randn(rng, 1, 24))
	tape := NewTape()
	forward := func() *Var {
		tape.Reset()
		return LayerNorm(tape.Watch(x), tape.Watch(gamma), tape.Watch(beta), 1e-5)
	}
	b.Run("forward", func(b *testing.B) {
		forward()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			forward()
		}
	})
	b.Run("backward", func(b *testing.B) {
		forward().Grad.Copy(tensor.Randn(rng, 1, 36, 24))
		nd := tape.nodes[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nd.back(nd)
		}
	})
}

// BenchmarkLinear times one dense layer, forward and backward, as the one
// Linear node and as the MatMul + AddRowVec pair it replaced in nn.Linear,
// at the transformer's projection and feed-forward shapes.
func BenchmarkLinear(b *testing.B) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, sh := range []struct {
		name    string
		n, k, m int
	}{{"proj_36x24x24", 36, 24, 24}, {"ff1_36x24x48", 36, 24, 48}} {
		rng := tensor.NewRNG(9)
		xv, up := tensor.Randn(rng, 1, sh.n, sh.k), tensor.Randn(rng, 1, sh.n, sh.m)
		w, bias := NewParam("w", tensor.Randn(rng, 0.3, sh.k, sh.m)), NewParam("b", tensor.New(sh.m))
		for _, form := range []struct {
			name  string
			build func(x, w, b *Var) *Var
		}{
			{"node", Linear},
			{"composed", func(x, w, b *Var) *Var { return AddRowVec(MatMul(x, w), b) }},
		} {
			b.Run(sh.name+"/"+form.name, func(b *testing.B) {
				tape := NewTape()
				step := func() {
					tape.Reset()
					out := form.build(tape.LeafOf(xv), tape.Watch(w), tape.Watch(bias))
					out.Grad.Copy(up)
					tape.BackwardSeeded()
				}
				step()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

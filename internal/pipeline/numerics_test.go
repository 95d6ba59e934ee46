package pipeline_test

import (
	"testing"

	"repro/internal/precision"
	"repro/internal/tensor"
)

// TestDPNumericsBitIdenticalAcrossWorkerCounts extends the engine's
// headline determinism property to the reduced compute regimes: at a
// fixed seed, batch, and microshard count, f32 and bf16(+loss scaling)
// training with K ∈ {2, 4} workers is bit-identical to the K = 1 run of
// the SAME regime. The f32 GEMM keeps the ascending-k accumulation order
// and every mixed-precision decision is a function of the identical
// all-reduced gradient, so worker count still never changes results.
func TestDPNumericsBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const (
		microshards = 4
		batch       = 64
		seed        = 11
		steps       = 16
	)
	for _, d := range []tensor.DType{tensor.Float32, tensor.BFloat16} {
		num := precision.Numerics{Compute: d}
		run := func(workers int) ([]float64, []float64) {
			eng := newNCFEngineNumerics(t, workers, microshards, batch, seed, num)
			defer eng.Close()
			var losses []float64
			for s := 0; s < steps; s++ {
				losses = append(losses, eng.StepNext())
			}
			return flatParamValues(eng.Params()), losses
		}
		refParams, refLosses := run(1)
		for _, k := range []int{2, 4} {
			gotParams, gotLosses := run(k)
			for i := range refParams {
				if gotParams[i] != refParams[i] {
					t.Fatalf("%v workers=%d: param element %d = %g, serial %g (not bit-identical)", d, k, i, gotParams[i], refParams[i])
				}
			}
			for s := range refLosses {
				if gotLosses[s] != refLosses[s] {
					t.Fatalf("%v workers=%d: step %d loss %g, serial %g", d, k, s, gotLosses[s], refLosses[s])
				}
			}
		}

		// The regime must actually engage: reduced-precision training has
		// to diverge (in value, not quality) from the fp64 reference.
		f64 := newNCFEngineNumerics(t, 1, microshards, batch, seed, precision.Numerics{})
		defer f64.Close()
		for s := 0; s < steps; s++ {
			f64.StepNext()
		}
		ref64 := flatParamValues(f64.Params())
		same := true
		for i := range ref64 {
			if refParams[i] != ref64[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v regime produced bitwise-fp64 parameters — reduced path not engaged", d)
		}
	}
}

// TestDPNumericsReplicasStayInSync checks the mixed-precision lockstep
// argument directly: after bf16+loss-scaling steps at K=4, all replicas
// (parameters AND optimizer state, via further steps) remain
// bit-identical — no replica ever made a different scale decision.
func TestDPNumericsReplicasStayInSync(t *testing.T) {
	eng := newNCFEngineNumerics(t, 4, 4, 64, 13, precision.Numerics{Compute: tensor.BFloat16})
	defer eng.Close()
	for s := 0; s < 12; s++ {
		eng.StepNext()
		if !eng.InSync() {
			t.Fatalf("replicas diverged after step %d under the mixed regime", s+1)
		}
	}
}

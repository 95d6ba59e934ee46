package pipeline_test

import (
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The one-stage rows: K replicas of a whole model (pipeline.Whole), each
// training on a data.Shard slice of every global minibatch and exchanging
// gradients through the ring all-reduce. TestDPMatchesPlainSerialLoop
// anchors the engine outside itself; the invariance matrix
// (invariance_test.go) holds every other shape to the K = S = 1 engine.

var recDSOnce = sync.OnceValue(func() *datasets.RecDataset {
	return datasets.GenerateRec(datasets.DefaultRecConfig())
})

// newEngine is benchmark id's engine as core.NewEngine builds it.
func newEngine(t testing.TB, id string, cfg pipeline.Config) *pipeline.Engine {
	t.Helper()
	eng, _, err := core.NewEngine(core.V05, id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// shape configures K replicas of S stages at M microbatches; batch 0 is
// the benchmark's reference batch.
func shape(k, s, m, batch int, seed uint64) pipeline.Config {
	return pipeline.Config{
		Endpoint: transport.Endpoint{Workers: k}, Stages: s, Microbatches: m,
		GlobalBatch: batch, Seed: seed,
	}
}

// The engine at Workers=1 must match a hand-written serial training loop
// exactly: same loader stream, same per-(step, microshard) RNG, each
// data.Shard run forward and backward on its own, the gradients weighted by
// the shard's share of the batch and summed in ascending microshard order,
// one optimizer step. The hand-written side uses no engine and no Ring, so
// the chain of relative identity tests (DP-K against DP-1, pipeline against
// its one-stage self) is anchored outside the engine. At one microshard the
// weight is exactly 1 and the sum has one term: the plain zero-grad /
// backward / step loop.
func TestDPMatchesPlainSerialLoop(t *testing.T) {
	const (
		batch = 64
		seed  = 3
		steps = 12
	)
	ds := recDSOnce()
	hp := models.DefaultNCFHParams()

	for _, microshards := range []int{1, 4} {
		eng := newEngine(t, "recommendation", shape(1, 1, microshards, batch, seed))
		for s := 0; s < steps; s++ {
			eng.StepNext()
		}

		plain := models.NewRecommendation(ds, hp, seed)
		params := plain.Params()
		row := make([]float64, autograd.FlatSize(params))
		sum := make([]float64, len(row))
		loader := data.NewLoader(len(ds.Train), batch, pipeline.LoaderRNG(seed))
		for s := 0; s < steps; s++ {
			idx, _ := loader.Next()
			for i := range sum {
				sum[i] = 0
			}
			for m := 0; m < microshards; m++ {
				shard := data.Shard(idx, m, microshards)
				for _, p := range params {
					p.ZeroGrad()
				}
				tape := autograd.NewTape()
				var rng tensor.RNG
				pipeline.MicroshardRNGInto(&rng, seed, s, m)
				loss := plain.MicrobatchLoss(tape, shard, &rng)
				tape.Backward(loss)
				autograd.FlattenGradsScaled(row, params, float64(len(shard))/float64(len(idx)))
				for i, g := range row {
					sum[i] += g
				}
			}
			autograd.ScatterGrads(sum, params)
			plain.Opt.Step()
		}

		if !autograd.ParamsEqual(eng.Params(), params) {
			t.Fatalf("engine at workers=1 microshards=%d diverged from the hand-written loop", microshards)
		}
	}
}

// Ring accounting: K workers, C chunks => 2(K-1)C messages and 2(K-1)·L·8
// payload bytes per step, matching the analytic model in internal/cluster.
func TestDPStatsRingAccounting(t *testing.T) {
	eng := newEngine(t, "recommendation", shape(4, 1, 8, 64, 1))
	eng.StepNext()
	eng.StepNext()
	st := eng.Stats()
	if st.Steps != 2 {
		t.Fatalf("steps = %d", st.Steps)
	}
	wantMsgs := 2 * 2 * (4 - 1) * 4 // steps × 2(K-1) × chunks(defaults to K)
	if st.RingMessages != wantMsgs {
		t.Fatalf("ring messages = %d, want %d", st.RingMessages, wantMsgs)
	}
	wantBytes := 2 * 2 * (4 - 1) * eng.FlatSize() * 8
	if st.RingBytes != wantBytes {
		t.Fatalf("ring bytes = %d, want %d", st.RingBytes, wantBytes)
	}
}

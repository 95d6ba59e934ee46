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
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The one-stage rows: K replicas of a whole model (pipeline.Whole), each
// training on a data.Shard slice of every global minibatch and exchanging
// gradients through the ring all-reduce. They anchor the engine outside
// itself (TestDPMatchesPlainSerialLoop) and pin the data-parallel column;
// pipeline_test.go compares every other K×S shape against this column.

var recDSOnce = sync.OnceValue(func() *datasets.RecDataset {
	return datasets.GenerateRec(datasets.DefaultRecConfig())
})

// newNCF builds a one-stage NCF engine from cfg (DatasetN filled in here)
// plus its replica models, all from cfg.Seed.
func newNCF(t testing.TB, cfg pipeline.Config) (*pipeline.Engine, []*models.Recommendation) {
	t.Helper()
	ds := recDSOnce()
	hp := models.DefaultNCFHParams()
	var reps []*models.Recommendation
	cfg.Stages, cfg.DatasetN = 1, len(ds.Train)
	eng, err := pipeline.New(cfg, func(worker int) []pipeline.StageReplica {
		m := models.NewRecommendation(ds, hp, cfg.Seed)
		reps = append(reps, m)
		return pipeline.Whole(m, m.Opt)
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, reps
}

// newNCFEngine is newNCF at the four knobs most rows vary.
func newNCFEngine(t testing.TB, workers, microbatches, batch int, seed uint64) (*pipeline.Engine, []*models.Recommendation) {
	t.Helper()
	return newNCF(t, pipeline.Config{
		Endpoint:     transport.Endpoint{Workers: workers},
		Microbatches: microbatches, GlobalBatch: batch, Seed: seed,
	})
}

// newNCFEngineNumerics is newNCFEngine with an explicit compute regime.
func newNCFEngineNumerics(t testing.TB, workers, microbatches, batch int, seed uint64, num precision.Numerics) *pipeline.Engine {
	t.Helper()
	eng, _ := newNCF(t, pipeline.Config{
		Endpoint:     transport.Endpoint{Workers: workers},
		Microbatches: microbatches, GlobalBatch: batch, Seed: seed, Numerics: num,
	})
	return eng
}

// newCoreEngine is benchmark id's one-stage engine as core builds it (its
// model row, optimizer and reference batch), from seed.
func newCoreEngine(t testing.TB, id string, workers, microbatches int, seed uint64, num precision.Numerics) *pipeline.Engine {
	t.Helper()
	eng, _, err := core.NewEngine(core.V05, id, pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers}, Stages: 1,
		Microbatches: microbatches, Seed: seed, Numerics: num,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// The headline determinism property: at a fixed seed, global batch, and
// microbatch count, training with K workers produces bit-identical
// parameters (and losses) to the K = 1 run, for every model without a
// partitioner at its reference batch: NCF at K ∈ {2, 4, 8} over eight
// microbatches, SSD, GNMT (with its clipped optimizer) and Mask R-CNN at
// K = 2 over two.
func TestDPBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const seed = 7
	for _, tc := range []struct {
		id           string
		microbatches int
		workers      []int
		steps        int
	}{
		{"recommendation", 8, []int{2, 4, 8}, 24},
		{"object_detection_ssd", 2, []int{2}, 3},
		{"translation_gnmt", 2, []int{2}, 3},
		{"instance_segmentation_maskrcnn", 2, []int{2}, 3},
	} {
		t.Run(tc.id, func(t *testing.T) {
			run := func(workers int) ([]float64, []float64) {
				eng := newCoreEngine(t, tc.id, workers, tc.microbatches, seed, precision.Numerics{})
				defer eng.Close()
				var losses []float64
				for s := 0; s < tc.steps; s++ {
					losses = append(losses, eng.StepNext())
				}
				return flatParamValues(eng.Params()), losses
			}
			refParams, refLosses := run(1)
			for _, k := range tc.workers {
				gotParams, gotLosses := run(k)
				for i := range refParams {
					if gotParams[i] != refParams[i] {
						t.Fatalf("workers=%d: param element %d = %g, K = 1 %g (not bit-identical)", k, i, gotParams[i], refParams[i])
					}
				}
				for s := range refLosses {
					if gotLosses[s] != refLosses[s] {
						t.Fatalf("workers=%d: step %d loss %g, K = 1 %g", k, s, gotLosses[s], refLosses[s])
					}
				}
			}
		})
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
		eng, _ := newNCFEngine(t, 1, microshards, batch, seed)
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

// Replicas must stay bit-identical across steps — the synchronous
// data-parallel invariant (identical init + identical aggregated gradient
// + identical optimizer update).
func TestDPReplicasStayInSync(t *testing.T) {
	eng, reps := newNCFEngine(t, 4, 8, 64, 11)
	for s := 0; s < 10; s++ {
		eng.StepNext()
		if !eng.InSync() {
			t.Fatalf("replicas out of sync after step %d", s+1)
		}
	}
	for i := 1; i < len(reps); i++ {
		if !autograd.ParamsEqual(reps[i].Params(), reps[0].Params()) {
			t.Fatalf("replica %d parameters differ from replica 0", i)
		}
	}
}

// Ragged configurations — microshards not dividing the batch, final short
// batch of an epoch — must still train every example exactly once and stay
// worker-count-invariant.
func TestDPRaggedBatchBitIdentical(t *testing.T) {
	const (
		microshards = 6
		batch       = 50 // not divisible by 6
		seed        = 13
		steps       = 8
	)
	run := func(workers int) []float64 {
		eng, _ := newNCFEngine(t, workers, microshards, batch, seed)
		for s := 0; s < steps; s++ {
			eng.StepNext()
		}
		return flatParamValues(eng.Params())
	}
	ref := run(1)
	for _, k := range []int{2, 3, 6} {
		got := run(k)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d ragged run diverged at element %d", k, i)
			}
		}
	}
}

// The image-classification adapter (conv/BN model with augmentation) must
// also be worker-count-invariant in its trainable parameters.
func TestDPImageBitIdenticalAcrossWorkerCounts(t *testing.T) {
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	run := func(workers int) []float64 {
		var reps []*models.ImageClassification
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: workers},
			Stages:   1, Microbatches: 4,
			GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 2,
		}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, 2)
			reps = append(reps, m)
			return pipeline.Whole(m, m.Opt)
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLRSchedule(reps[0].Sched)
		for s := 0; s < 3; s++ {
			eng.StepNext()
		}
		return flatParamValues(eng.Params())
	}
	ref := run(1)
	for _, k := range []int{2, 4} {
		got := run(k)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d image run diverged at element %d", k, i)
			}
		}
	}
}

// Ring accounting: K workers, C chunks => 2(K-1)C messages and 2(K-1)·L·8
// payload bytes per step, matching the analytic model in internal/cluster.
func TestDPStatsRingAccounting(t *testing.T) {
	eng, _ := newNCFEngine(t, 4, 8, 64, 1)
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

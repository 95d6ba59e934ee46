package dist_test

import (
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

var recDSOnce = sync.OnceValue(func() *datasets.RecDataset {
	return datasets.GenerateRec(datasets.DefaultRecConfig())
})

var imgDSOnce = sync.OnceValue(func() *datasets.ImageDataset {
	return datasets.GenerateImages(datasets.DefaultImageConfig())
})

// newNCFEngine builds a data-parallel NCF engine plus its replica models.
func newNCFEngine(t testing.TB, workers, microshards, batch int, seed uint64) (*dist.Engine, []*models.Recommendation) {
	t.Helper()
	ds := recDSOnce()
	hp := models.DefaultNCFHParams()
	var reps []*models.Recommendation
	eng, err := dist.New(dist.Config{
		Endpoint:    transport.Endpoint{Workers: workers},
		Microshards: microshards,
		GlobalBatch: batch, DatasetN: len(ds.Train), Seed: seed,
	}, func(worker int) dist.Replica {
		m := models.NewRecommendation(ds, hp, seed)
		reps = append(reps, m)
		return dist.Replica{Model: m, Opt: m.Opt}
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, reps
}

// flatValues snapshots replica 0's parameter values.
func flatValues(eng *dist.Engine) []float64 {
	var out []float64
	for _, p := range eng.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// The headline determinism property: at a fixed seed, global batch, and
// microshard count, training with K ∈ {2, 4, 8} workers produces
// bit-identical parameters (and losses) to the K = 1 serial run.
func TestDPBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const (
		microshards = 8
		batch       = 64
		seed        = 7
		steps       = 24
	)
	run := func(workers int) ([]float64, []float64) {
		eng, _ := newNCFEngine(t, workers, microshards, batch, seed)
		var losses []float64
		for s := 0; s < steps; s++ {
			losses = append(losses, eng.StepNext())
		}
		return flatValues(eng), losses
	}
	refParams, refLosses := run(1)
	for _, k := range []int{2, 4, 8} {
		gotParams, gotLosses := run(k)
		for i := range refParams {
			if gotParams[i] != refParams[i] {
				t.Fatalf("workers=%d: param element %d = %g, serial %g (not bit-identical)", k, i, gotParams[i], refParams[i])
			}
		}
		for s := range refLosses {
			if gotLosses[s] != refLosses[s] {
				t.Fatalf("workers=%d: step %d loss %g, serial %g", k, s, gotLosses[s], refLosses[s])
			}
		}
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
				loss := plain.MicrobatchLoss(tape, shard, pipeline.MicroshardRNG(seed, s, m))
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

// The chunk count is a pipelining knob: it must never change results.
func TestDPChunkCountInvariant(t *testing.T) {
	ds := recDSOnce()
	hp := models.DefaultNCFHParams()
	run := func(chunks int) []float64 {
		var reps []*models.Recommendation
		eng, err := dist.New(dist.Config{
			Endpoint:    transport.Endpoint{Workers: 4, Chunks: chunks},
			Microshards: 8,
			GlobalBatch: 64, DatasetN: len(ds.Train), Seed: 5,
		}, func(worker int) dist.Replica {
			m := models.NewRecommendation(ds, hp, 5)
			reps = append(reps, m)
			return dist.Replica{Model: m, Opt: m.Opt}
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 6; s++ {
			eng.StepNext()
		}
		return flatValues(eng)
	}
	ref := run(1)
	for _, chunks := range []int{3, 4, 16} {
		got := run(chunks)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("chunks=%d changed results at element %d", chunks, i)
			}
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
		return flatValues(eng)
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
		eng, err := dist.New(dist.Config{
			Endpoint:    transport.Endpoint{Workers: workers},
			Microshards: 4,
			GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 2,
		}, func(worker int) dist.Replica {
			m := models.NewImageClassification(ds, hp, 2)
			reps = append(reps, m)
			return dist.Replica{Model: m, Opt: m.Opt}
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLRSchedule(reps[0].Sched)
		for s := 0; s < 3; s++ {
			eng.StepNext()
		}
		var out []float64
		for _, p := range eng.Params() {
			out = append(out, p.Value.Data...)
		}
		return out
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

func TestDPEngineValidation(t *testing.T) {
	ds := recDSOnce()
	hp := models.DefaultNCFHParams()
	okFactory := func(worker int) dist.Replica {
		m := models.NewRecommendation(ds, hp, 1)
		return dist.Replica{Model: m, Opt: m.Opt}
	}
	cases := []struct {
		name string
		cfg  dist.Config
		fac  func(int) dist.Replica
	}{
		{"zero workers", dist.Config{Endpoint: transport.Endpoint{Workers: 0}, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"zero batch", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, GlobalBatch: 0, DatasetN: 100}, okFactory},
		{"zero dataset", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, GlobalBatch: 8, DatasetN: 0}, okFactory},
		{"microshards not multiple", dist.Config{Endpoint: transport.Endpoint{Workers: 4}, Microshards: 6, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"negative workers", dist.Config{Endpoint: transport.Endpoint{Workers: -1}, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"negative chunks", dist.Config{Endpoint: transport.Endpoint{Workers: 2, Chunks: -1}, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"negative microshards", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, Microshards: -2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"microshards exceed batch", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, Microshards: 16, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"workers exceed batch", dist.Config{Endpoint: transport.Endpoint{Workers: 16}, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"droplast batch over dataset", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, GlobalBatch: 200, DatasetN: 100, DropLast: true}, okFactory},
		{"nil factory", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, GlobalBatch: 8, DatasetN: 100}, nil},
		{"mismatched replicas", dist.Config{Endpoint: transport.Endpoint{Workers: 2}, GlobalBatch: 8, DatasetN: 100}, func(worker int) dist.Replica {
			m := models.NewRecommendation(ds, hp, uint64(worker)) // different seeds: different init
			return dist.Replica{Model: m, Opt: m.Opt}
		}},
	}
	for _, c := range cases {
		if _, err := dist.New(c.cfg, c.fac); err == nil {
			t.Errorf("%s: expected error", c.name)
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

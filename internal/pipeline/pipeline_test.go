package pipeline_test

import (
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

var imgDSOnce = sync.OnceValue(func() *datasets.ImageDataset {
	return datasets.GenerateImages(datasets.DefaultImageConfig())
})

var mtDSOnce = sync.OnceValue(func() *datasets.MTDataset {
	return datasets.GenerateMT(datasets.DefaultMTConfig())
})

// newImagePipeline builds a hybrid DP×PP ResNet engine.
func newImagePipeline(t testing.TB, stages, workers, microbatches, batch int, sched pipeline.Schedule, seed uint64) (*pipeline.Engine, []*models.ImageClassification) {
	t.Helper()
	return newImagePipelineHP(t, models.DefaultImageHParams(), stages, workers, microbatches, batch, sched, seed)
}

// newImagePipelineHP is newImagePipeline under other hyperparameters.
func newImagePipelineHP(t testing.TB, hp models.ImageHParams, stages, workers, microbatches, batch int, sched pipeline.Schedule, seed uint64) (*pipeline.Engine, []*models.ImageClassification) {
	t.Helper()
	ds := imgDSOnce()
	var reps []*models.ImageClassification
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   stages, Microbatches: microbatches,
		Schedule: sched, GlobalBatch: batch, DatasetN: ds.Cfg.TrainN, Seed: seed,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, seed)
		reps = append(reps, m)
		parts, err := m.PipelineStages(stages)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.Wrap(parts)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLRSchedule(reps[0].Sched)
	return eng, reps
}

// newTransformerPipeline is newImagePipeline for the default Transformer.
func newTransformerPipeline(t testing.TB, stages, workers, microbatches, batch int, sched pipeline.Schedule, seed uint64) *pipeline.Engine {
	t.Helper()
	ds := mtDSOnce()
	var reps []*models.Translation
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   stages, Microbatches: microbatches,
		Schedule: sched, GlobalBatch: batch, DatasetN: len(ds.Train), Seed: seed,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewTranslation(ds, models.DefaultTransformerHParams(), seed)
		reps = append(reps, m)
		parts, err := m.PipelineStages(stages)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.Wrap(parts)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLRSchedule(reps[0].Sched)
	return eng
}

// wholeBaseline builds the K = S = 1 engine over the unsplit model
// (pipeline.Whole, no partitioner): the serial microbatch baseline every
// grid below is compared against, itself anchored by dp_test.go to a
// hand-written loop that uses no engine.
func wholeBaseline(t testing.TB, microbatches, batch, datasetN int, seed uint64, build func() (pipeline.Trainable, opt.Optimizer, opt.Schedule)) *pipeline.Engine {
	t.Helper()
	var sched opt.Schedule
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1},
		Stages:   1, Microbatches: microbatches,
		GlobalBatch: batch, DatasetN: datasetN, Seed: seed,
	}, func(int) []pipeline.StageReplica {
		m, o, s := build()
		sched = s
		return pipeline.Whole(m, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLRSchedule(sched)
	return eng
}

func imageWholeBaseline(t testing.TB, microbatches, batch, datasetN int, seed uint64) *pipeline.Engine {
	return wholeBaseline(t, microbatches, batch, datasetN, seed, func() (pipeline.Trainable, opt.Optimizer, opt.Schedule) {
		m := models.NewImageClassification(imgDSOnce(), models.DefaultImageHParams(), seed)
		return m, m.Opt, m.Sched
	})
}

func imageSerialBaseline(t testing.TB, microbatches, batch, steps int, seed uint64) []float64 {
	t.Helper()
	eng := imageWholeBaseline(t, microbatches, batch, imgDSOnce().Cfg.TrainN, seed)
	defer eng.Close()
	for s := 0; s < steps; s++ {
		eng.StepNext()
	}
	return flatParamValues(eng.Params())
}

func flatParamValues(params []*autograd.Param) []float64 {
	var out []float64
	for _, p := range params {
		out = append(out, p.Value.Data...)
	}
	return out
}

// paramsByName indexes parameter values by name: the pipeline engine's
// Params() order is stage-concatenation order, which can differ from the
// serial model's list order, so cross-engine comparison matches by name.
func paramsByName(params []*autograd.Param) map[string][]float64 {
	out := make(map[string][]float64, len(params))
	for _, p := range params {
		out[p.Name] = p.Value.Data
	}
	return out
}

func requireSameParams(t *testing.T, label string, got []*autograd.Param, want map[string][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d params, want %d", label, len(got), len(want))
	}
	for _, p := range got {
		ref, ok := want[p.Name]
		if !ok {
			t.Fatalf("%s: unexpected param %q", label, p.Name)
		}
		for i, v := range p.Value.Data {
			if v != ref[i] {
				t.Fatalf("%s: param %q element %d = %g, serial %g (not bit-identical)", label, p.Name, i, v, ref[i])
			}
		}
	}
}

// The headline property: pipeline-parallel (and hybrid DP×PP) ResNet
// training is bit-identical to the serial microbatch baseline across the
// full (stages, schedule, workers) grid at fixed Microbatches.
func TestPPImageBitIdenticalGrid(t *testing.T) {
	const (
		microbatches = 8
		batch        = 32
		seed         = 7
		steps        = 3
	)
	serial := imageSerialBaseline(t, microbatches, batch, steps, seed)

	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	ref := func() map[string][]float64 {
		m := models.NewImageClassification(ds, hp, seed)
		byName := make(map[string][]float64)
		o := 0
		for _, p := range m.Params() {
			byName[p.Name] = serial[o : o+p.Value.Size()]
			o += p.Value.Size()
		}
		return byName
	}()

	for _, stages := range []int{1, 2, 4} {
		for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
			for _, workers := range []int{1, 2} {
				eng, _ := newImagePipeline(t, stages, workers, microbatches, batch, sched, seed)
				for s := 0; s < steps; s++ {
					eng.StepNext()
				}
				label := string(sched)
				if !eng.InSync() {
					t.Fatalf("S=%d %s K=%d: stage replicas out of sync", stages, label, workers)
				}
				requireSameParams(t, label, eng.Params(), ref)
				eng.Close()
			}
		}
	}
}

// The Transformer grid: encoder-decoder staging with tied embeddings on
// stage 0, pass-through decoder embedding and attention memory across
// stage boundaries.
func TestPPTransformerBitIdenticalGrid(t *testing.T) {
	const (
		microbatches = 4
		batch        = 16
		seed         = 5
		steps        = 2
	)
	ds := mtDSOnce()
	hp := models.DefaultTransformerHParams()

	// Serial microbatch oracle: the unsplit model on the K = S = 1 engine.
	serialEng := wholeBaseline(t, microbatches, batch, len(ds.Train), seed, func() (pipeline.Trainable, opt.Optimizer, opt.Schedule) {
		m := models.NewTranslation(ds, hp, seed)
		return m, m.Opt, m.Sched
	})
	defer serialEng.Close()
	var serialLosses []float64
	for s := 0; s < steps; s++ {
		serialLosses = append(serialLosses, serialEng.StepNext())
	}
	ref := paramsByName(serialEng.Params())

	// S = 3, 8 and 12 put cuts inside blocks (12 is one sublayer per
	// stage, the default model's maximum).
	for _, stages := range []int{1, 2, 3, 4, 8, 12} {
		for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
			for _, workers := range []int{1, 2} {
				eng := newTransformerPipeline(t, stages, workers, microbatches, batch, sched, seed)
				for s := 0; s < steps; s++ {
					if loss := eng.StepNext(); loss != serialLosses[s] {
						t.Fatalf("S=%d %s K=%d: step %d loss %g, serial %g", stages, sched, workers, s, loss, serialLosses[s])
					}
				}
				if !eng.InSync() {
					t.Fatalf("S=%d %s K=%d: stage replicas out of sync", stages, sched, workers)
				}
				requireSameParams(t, string(sched), eng.Params(), ref)
				eng.Close()
			}
		}
	}
}

// The Figure-1 precision policy is the optimizer's, and it quantizes one
// parameter at a time, so a ternary-weight run splits across stages without
// moving a bit. It also really trains in ternary: after every update each
// parameter holds at most three values (-s, 0, s), which fp64 never does.
func TestPPPrecisionPolicyBitIdenticalAcrossStages(t *testing.T) {
	const (
		microbatches = 4
		batch        = 32
		seed         = 9
		steps        = 3
	)
	ternary := models.DefaultImageHParams()
	ternary.Precision = precision.WeightsOnly(precision.Ternary)
	run := func(hp models.ImageHParams, stages int) []*autograd.Param {
		eng, _ := newImagePipelineHP(t, hp, stages, 1, microbatches, batch, pipeline.OneFOneB, seed)
		t.Cleanup(eng.Close)
		for s := 0; s < steps; s++ {
			eng.StepNext()
		}
		return eng.Params()
	}
	pp1 := run(ternary, 1)
	requireSameParams(t, "ternary PP-2", run(ternary, 2), paramsByName(pp1))
	for _, p := range pp1 {
		levels := map[float64]bool{}
		for _, x := range p.Value.Data {
			levels[x] = true
		}
		if len(levels) > 3 {
			t.Fatalf("%s holds %d values after ternary training: the update was not quantized", p.Name, len(levels))
		}
	}
}

// Ragged configurations: a batch the microbatch count does not divide, a
// short final batch that leaves some microbatches empty, and an epoch
// boundary in the middle of the run — all must stay bit-identical to the
// serial baseline.
func TestPPRaggedBatchesBitIdentical(t *testing.T) {
	const (
		microbatches = 16
		batch        = 30 // not divisible by 16; final batch of 10 leaves empties
		datasetN     = 100
		seed         = 11
		steps        = 5 // crosses the 4-step epoch boundary
	)
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()

	serialEng := imageWholeBaseline(t, microbatches, batch, datasetN, seed)
	defer serialEng.Close()
	var serialLosses []float64
	for s := 0; s < steps; s++ {
		serialLosses = append(serialLosses, serialEng.StepNext())
	}
	ref := paramsByName(serialEng.Params())

	for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
		var reps []*models.ImageClassification
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: 2},
			Stages:   2, Microbatches: microbatches,
			Schedule: sched, GlobalBatch: batch, DatasetN: datasetN, Seed: seed,
		}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, seed)
			reps = append(reps, m)
			parts, err := m.PipelineStages(2)
			if err != nil {
				t.Fatal(err)
			}
			return pipeline.Wrap(parts)
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLRSchedule(reps[0].Sched)
		for s := 0; s < steps; s++ {
			if loss := eng.StepNext(); loss != serialLosses[s] {
				t.Fatalf("%s: step %d loss %g, serial %g", sched, s, loss, serialLosses[s])
			}
		}
		requireSameParams(t, string(sched), eng.Params(), ref)
		eng.Close()
	}
}

// The loss reported by the engine equals the serial engine's loss stream,
// and schedule/stage/worker knobs never change it.
func TestPPLossMatchesSerial(t *testing.T) {
	const (
		microbatches = 8
		batch        = 32
		seed         = 3
		steps        = 3
	)
	run := func(stages, workers int, sched pipeline.Schedule) []float64 {
		eng, _ := newImagePipeline(t, stages, workers, microbatches, batch, sched, seed)
		defer eng.Close()
		var out []float64
		for s := 0; s < steps; s++ {
			out = append(out, eng.StepNext())
		}
		return out
	}
	ref := run(1, 1, pipeline.GPipe)
	for _, cfg := range []struct {
		s, k  int
		sched pipeline.Schedule
	}{{4, 1, pipeline.GPipe}, {2, 2, pipeline.OneFOneB}, {4, 2, pipeline.OneFOneB}} {
		got := run(cfg.s, cfg.k, cfg.sched)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("S=%d K=%d %s: step %d loss %g, want %g", cfg.s, cfg.k, cfg.sched, i, got[i], ref[i])
			}
		}
	}
}

func TestPPEngineValidation(t *testing.T) {
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	okFactory := func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, 1)
		parts, err := m.PipelineStages(2)
		if err != nil {
			t.Fatal(err)
		}
		return pipeline.Wrap(parts)
	}
	cases := []struct {
		name string
		cfg  pipeline.Config
		fac  func(int) []pipeline.StageReplica
	}{
		{"zero stages", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 0, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"zero workers", pipeline.Config{Endpoint: transport.Endpoint{Workers: 0}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"zero batch", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 0, DatasetN: 100}, okFactory},
		{"zero dataset", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 0}, okFactory},
		{"negative workers", pipeline.Config{Endpoint: transport.Endpoint{Workers: -1}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"negative microbatches", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, Microbatches: -2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"workers exceed batch", pipeline.Config{Endpoint: transport.Endpoint{Workers: 16}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"microbatches not multiple", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, Microbatches: 3, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"microbatches exceed batch", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, Microbatches: 16, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"bad schedule", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, Schedule: "zigzag", GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"droplast batch over dataset", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 200, DatasetN: 100, DropLast: true}, okFactory},
		{"nil factory", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, nil},
		{"mixed precision across stages", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 100, Numerics: precision.Numerics{Compute: tensor.BFloat16}}, okFactory},
		{"wrong stage count", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 3, GlobalBatch: 8, DatasetN: 100}, okFactory},
		{"incomplete stage", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, func(int) []pipeline.StageReplica {
			return make([]pipeline.StageReplica, 2)
		}},
		{"mismatched replicas", pipeline.Config{Endpoint: transport.Endpoint{Workers: 2}, Stages: 2, GlobalBatch: 8, DatasetN: 100}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, uint64(worker)) // different seeds: different init
			parts, err := m.PipelineStages(2)
			if err != nil {
				t.Fatal(err)
			}
			return pipeline.Wrap(parts)
		}},
	}
	for _, c := range cases {
		if _, err := pipeline.New(c.cfg, c.fac); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// Partitioner validation: more stages than splittable blocks must fail
// with a clear error rather than producing empty stages.
func TestPPPartitionerTooManyStages(t *testing.T) {
	ds := imgDSOnce()
	m := models.NewImageClassification(ds, models.DefaultImageHParams(), 1)
	if _, err := m.PipelineStages(64); err == nil {
		t.Fatal("expected error for more stages than blocks")
	}
	mt := models.NewTranslation(mtDSOnce(), models.DefaultTransformerHParams(), 1)
	if _, err := mt.PipelineStages(64); err == nil {
		t.Fatal("expected error for more stages than blocks")
	}
}

// Close must stop the stage goroutines, tolerate repeated calls, and be a
// no-op on the serial shape.
func TestPPCloseIdempotent(t *testing.T) {
	for _, cfg := range []struct{ s, k int }{{1, 1}, {2, 2}} {
		eng, _ := newImagePipeline(t, cfg.s, cfg.k, 4, 32, pipeline.GPipe, 1)
		eng.StepNext()
		eng.Close()
		eng.Close() // must not panic
	}
}

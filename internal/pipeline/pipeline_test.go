package pipeline_test

import (
	"errors"
	"sync"
	"testing"

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

// The Figure-1 precision policy is the optimizer's, and it quantizes one
// parameter at a time, so a ternary-weight run splits across stages without
// moving a bit. It also really trains in ternary: after every update each
// parameter holds at most three values (-s, 0, s), which fp64 never does.
func TestPPPrecisionPolicyBitIdenticalAcrossStages(t *testing.T) {
	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	hp.Precision = precision.WeightsOnly(precision.Ternary)
	run := func(stages int) *pipeline.Engine {
		var sched opt.Schedule
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: 1}, Stages: stages, Microbatches: 4,
			GlobalBatch: 32, DatasetN: ds.Cfg.TrainN, Seed: 9,
		}, func(int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, 9)
			parts, err := m.PipelineStages(stages)
			if err != nil {
				t.Fatal(err)
			}
			sched = m.Sched
			return pipeline.Wrap(parts)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(eng.Close)
		eng.SetLRSchedule(sched)
		for range 3 {
			eng.StepNext()
		}
		return eng
	}
	pp1 := run(1)
	if got, want := nameDigest(t, run(2)), nameDigest(t, pp1); got != want {
		t.Fatalf("ternary PP-2 parameter digest %s, PP-1 %s", got, want)
	}
	for _, p := range pp1.Params() {
		levels := map[float64]bool{}
		for _, x := range p.Value.Data {
			levels[x] = true
		}
		if len(levels) > 3 {
			t.Fatalf("%s holds %d values after ternary training: the update was not quantized", p.Name, len(levels))
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
		{"gpipe schedule", pipeline.Config{Endpoint: transport.Endpoint{Workers: 1}, Stages: 2, Schedule: "gpipe", GlobalBatch: 8, DatasetN: 100}, okFactory},
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
		} else if c.cfg.Schedule != "" && !errors.Is(err, pipeline.ErrSchedule) {
			t.Errorf("%s: %v, want a refusal that names the one schedule", c.name, err)
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
		eng := newEngine(t, "image_classification", shape(cfg.k, cfg.s, 4, 32, 1))
		eng.StepNext()
		eng.Close()
		eng.Close() // must not panic
	}
}

package pipeline_test

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// TestStepAllocsZero asserts the steady-state contract end to end: once a
// few warmup steps have populated the tensor arena, the pooled tape slots,
// and the batch buffers, a full synchronous data-parallel training step —
// forward, backward, ring all-reduce, optimizer update, loader advance —
// performs zero heap allocations, serial and at 4 workers. The kernel pool
// is pinned to 1 worker (see bench_step_test.go for why).
func TestStepAllocsZero(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	for _, workers := range []int{1, 4} {
		eng, _ := newNCF(t, pipeline.Config{
			Endpoint:     transport.Endpoint{Workers: workers},
			Microbatches: 8, GlobalBatch: 256, Seed: 1, DropLast: true,
		})
		for i := 0; i < 6; i++ {
			eng.StepNext()
		}
		if n := testing.AllocsPerRun(10, func() { eng.StepNext() }); n != 0 {
			t.Errorf("workers=%d: warm training step allocates %v per step, want 0", workers, n)
		}
		eng.Close()
	}
}

// TestArenaRecyclingAcrossEngines asserts the shared-arena contract that
// core.Configure relies on: after Close returns an engine's buffers —
// including the per-worker tapes' working sets — to a shared arena, a
// second engine drawing from the same arena warms up mostly from the pool
// instead of the heap.
func TestArenaRecyclingAcrossEngines(t *testing.T) {
	pool := arena.New()
	run := func() {
		eng, _ := newNCF(t, pipeline.Config{
			Endpoint:     transport.Endpoint{Workers: 2},
			Microbatches: 4, Arena: pool,
			GlobalBatch: 64, Seed: 1, DropLast: true,
		})
		for i := 0; i < 3; i++ {
			eng.StepNext()
		}
		eng.Close()
	}
	run()
	first := pool.Stats()
	if first.Puts == 0 {
		t.Fatal("Close returned no buffers to the shared arena")
	}
	run()
	second := pool.Stats()
	missed := second.Misses - first.Misses
	if missed*2 > first.Misses {
		t.Errorf("second engine missed %d times vs %d cold misses; shared arena is not recycling", missed, first.Misses)
	}
}

// TestPPStepAllocsZero asserts the steady-state contract for the pipeline
// path end to end: once a few warmup steps have populated the per-slot
// pooled tapes, the boundary-transfer cells, and the batch buffers, a full
// pipelined training step — microbatch schedule, activation/gradient
// channel exchange, stage-group ring all-reduce, optimizer updates, loader
// advance — performs zero heap allocations, for pure PP and for hybrid
// DP×PP, under both schedules. The kernel pool is pinned to 1 worker (see
// bench_step_test.go for why).
func TestPPStepAllocsZero(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	ds := imgDSOnce()
	hp := models.DefaultImageHParams()
	for _, cfg := range []struct {
		stages, workers int
		sched           pipeline.Schedule
	}{
		{4, 1, pipeline.GPipe},
		{4, 1, pipeline.OneFOneB},
		{2, 2, pipeline.GPipe},
		{2, 2, pipeline.OneFOneB},
	} {
		var reps []*models.ImageClassification
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: cfg.workers},
			Stages:   cfg.stages, Microbatches: 4,
			Schedule: cfg.sched, GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN,
			Seed: 1, DropLast: true,
		}, func(worker int) []pipeline.StageReplica {
			m := models.NewImageClassification(ds, hp, 1)
			reps = append(reps, m)
			parts, err := m.PipelineStages(cfg.stages)
			if err != nil {
				t.Fatal(err)
			}
			return pipeline.Wrap(parts)
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLRSchedule(reps[0].Sched)
		for i := 0; i < 6; i++ {
			eng.StepNext()
		}
		if n := testing.AllocsPerRun(10, func() { eng.StepNext() }); n != 0 {
			t.Errorf("S=%d K=%d %s: warm pipeline step allocates %v per step, want 0",
				cfg.stages, cfg.workers, cfg.sched, n)
		}
		eng.Close()
	}
}

// The same contract for the transformer step the repo benchmark times
// (PP-2, four microbatches, 1F1B): with attention one pooled tape node and
// the positional constants cached per shape, it allocates nothing either.
func TestPPTransformerStepAllocsZero(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	for _, sched := range []pipeline.Schedule{pipeline.GPipe, pipeline.OneFOneB} {
		eng := newTransformerPipeline(t, 2, 1, 4, 16, sched, 1)
		for i := 0; i < 6; i++ {
			eng.StepNext()
		}
		if n := testing.AllocsPerRun(10, func() { eng.StepNext() }); n != 0 {
			t.Errorf("%s: warm PP-2 transformer step allocates %v per step, want 0", sched, n)
		}
		eng.Close()
	}
}

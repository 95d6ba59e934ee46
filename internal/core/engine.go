package core

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/transport"
)

// engineReplica is what one benchmark hands the engine per worker: the
// model as stage replicas, plus worker 0's LR schedule and quality metric.
type engineReplica struct {
	stages []pipeline.StageReplica
	sched  opt.Schedule
	eval   func() float64
}

// engineBenchmark is Configure's engine path: a copy of the suite
// benchmark whose New constructor trains on the internal/pipeline engine
// as p.DP replicas of p.PPStages stages (0 stages selects the one-stage
// data-parallel column, whose reduction grain is p.Microshards). The
// wrapped workload implements models.Workload, so Run/RunSet apply the
// §3.2.1 timing rules and emit compliant MLLOG streams exactly as for
// serial runs.
//
// Runs sharing seed, global batch, and reduction grain produce
// bit-identical trainable parameters for every (stages, schedule, workers)
// combination — the engine's determinism contract. BatchNorm running
// statistics (eval-time buffers) accumulate per replica from its own
// microbatches, as in real DDP without synchronized BN, so measured quality
// and epochs-to-target can differ slightly across worker counts.
func engineBenchmark(v Version, id string, p Parallel, num precision.Numerics) (Benchmark, error) {
	b, err := FindBenchmark(v, id)
	if err != nil {
		return Benchmark{}, err
	}
	stages, workers, micro := p.PPStages, p.DP, p.Microbatches
	if stages == 0 {
		stages, micro = 1, p.Microshards
		if micro <= 0 && workers > 0 {
			micro = workers
			if 8%workers == 0 {
				micro = 8
			}
		}
	} else if workers == 0 {
		workers = 1
	}
	// Surface config errors here, on the clean error path, rather than as a
	// run-time panic from pipeline.New inside b.New.
	if stages < 1 {
		return Benchmark{}, fmt.Errorf("core: pipeline stage count %d < 1", stages)
	}
	if workers < 1 {
		return Benchmark{}, fmt.Errorf("core: worker count %d < 1", workers)
	}
	if micro < 0 || micro%workers != 0 {
		return Benchmark{}, fmt.Errorf("core: microshards/microbatches %d must be a positive multiple of the worker count %d (or 0 for auto)", micro, workers)
	}
	sched := pipeline.Schedule(p.PPSchedule)
	switch sched {
	case "", pipeline.GPipe, pipeline.OneFOneB:
	default:
		return Benchmark{}, fmt.Errorf("core: unknown pipeline schedule %q (want %q or %q)", p.PPSchedule, pipeline.GPipe, pipeline.OneFOneB)
	}
	if num.Mixed && stages > 1 {
		return Benchmark{}, fmt.Errorf("core: mixed-precision numerics do not decompose across pipeline stage shards (the master-weight/loss-scaling bracket is whole-model); use the f32 compute regime, or mixed precision with data-parallel/serial training")
	}

	var (
		batch, datasetN int
		build           func(seed uint64) (engineReplica, error)
	)
	switch id {
	case "recommendation":
		if stages > 1 {
			return Benchmark{}, fmt.Errorf("core: benchmark %q does not support pipeline-parallel training (supported: image_classification, translation_transformer)", id)
		}
		ds, hp := recDSOnce(), models.DefaultNCFHParams()
		batch, datasetN = hp.Batch, len(ds.Train)
		build = func(seed uint64) (engineReplica, error) {
			m := models.NewRecommendation(ds, hp, seed)
			return engineReplica{pipeline.Whole(m, m.Opt), nil, m.Evaluate}, nil
		}
	case "image_classification":
		ds, hp := imgDSOnce(), imageHParams(v)
		batch, datasetN = hp.Batch, ds.Cfg.TrainN
		build = func(seed uint64) (engineReplica, error) {
			m := models.NewImageClassification(ds, hp, seed)
			st, err := pipeline.StagesOf(m, m.Opt, stages, m.PipelineStages)
			return engineReplica{st, m.Sched, m.Evaluate}, err
		}
	case "translation_transformer":
		ds, hp := mtDSOnce(), models.DefaultTransformerHParams()
		batch, datasetN = hp.Batch, len(ds.Train)
		build = func(seed uint64) (engineReplica, error) {
			m := models.NewTranslation(ds, hp, seed)
			st, err := pipeline.StagesOf(m, m.Opt, stages, m.PipelineStages)
			return engineReplica{st, m.Sched, m.Evaluate}, err
		}
	default:
		return Benchmark{}, fmt.Errorf("core: benchmark %q does not support engine training (supported: image_classification, recommendation, translation_transformer)", id)
	}

	// One arena for all of this benchmark's runs: each run's engine draws
	// its gradient/aggregate/ring buffers from the shared pool and Close
	// (called by core.Run at run end) returns them, so a run set recycles
	// buffers across runs instead of growing the heap. The arena is
	// goroutine-safe, so concurrent run sets can share it too.
	pool := arena.New()
	b.New = func(seed uint64) models.Workload {
		// The LR schedule is built per replica; all replicas share the same
		// step count, so worker 0's drives the engine.
		var first engineReplica
		var buildErr error
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: workers},
			Stages:   stages, Microbatches: micro, Schedule: sched,
			GlobalBatch: batch, DatasetN: datasetN, Seed: seed, Arena: pool, Numerics: num,
		}, func(worker int) []pipeline.StageReplica {
			r, err := build(seed)
			if worker == 0 {
				first, buildErr = r, err
			}
			return r.stages
		})
		if buildErr != nil {
			err = buildErr
		}
		if err != nil {
			panic(err)
		}
		eng.SetLRSchedule(first.sched)
		return pipeline.NewWorkload(id, eng, first.eval)
	}

	switch {
	case p.PPStages == 0:
		b.Model += fmt.Sprintf(" [data-parallel ×%d]", workers)
	case workers > 1:
		b.Model += fmt.Sprintf(" [hybrid DP×%d PP×%d]", workers, stages)
	default:
		b.Model += fmt.Sprintf(" [pipeline ×%d]", stages)
	}
	if num.Compute != 0 || num.Mixed {
		b.Model += fmt.Sprintf(" [numerics %s]", NumericsTag(num))
	}
	return b, nil
}

// Compile-time check: the engine workload wrapper satisfies the harness
// contract (including the step counter used for cost accounting).
var (
	_ models.Workload    = (*pipeline.Workload)(nil)
	_ models.StepCounter = (*pipeline.Workload)(nil)
)

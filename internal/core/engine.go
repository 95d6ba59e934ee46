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
// model as stage replicas, plus that worker's LR schedule and quality
// metric.
type engineReplica struct {
	stages []pipeline.StageReplica
	sched  opt.Schedule
	eval   func() float64
}

// engineModel is how one benchmark trains on the engine: its reference
// global batch, its training-set size (the dataset is generated on first
// use, once per process), whether it has a pipeline partitioner, and its
// per-seed replica factory.
type engineModel struct {
	batch    int
	datasetN func() int
	split    bool
	replica  func(seed uint64) (engineReplica, error)
}

// engineModelOf is the one table from benchmark ID to engine training:
// every engine in the repo, in-process or one grid cell of a multi-process
// run, is built from the row it returns.
func engineModelOf(v Version, id string, stages int) (engineModel, error) {
	var row engineModel
	switch id {
	case "image_classification":
		hp := imageHParams(v)
		row = engineModel{hp.Batch, func() int { return imgDSOnce().Cfg.TrainN }, true,
			func(seed uint64) (engineReplica, error) {
				m := models.NewImageClassification(imgDSOnce(), hp, seed)
				st, err := pipeline.StagesOf(m, m.Opt, stages, m.PipelineStages)
				return engineReplica{st, m.Sched, m.Evaluate}, err
			}}
	case "object_detection_ssd":
		hp := models.DefaultDetHParams()
		row = engineModel{hp.Batch, func() int { return len(detDSOnce().Train) }, false,
			func(seed uint64) (engineReplica, error) {
				m := models.NewObjectDetection(detDSOnce(), hp, seed)
				return engineReplica{pipeline.Whole(m, m.Opt), nil, m.Evaluate}, nil
			}}
	case "instance_segmentation_maskrcnn":
		hp := models.DefaultMaskHParams()
		row = engineModel{hp.Batch, func() int { return len(detDSOnce().Train) }, false,
			func(seed uint64) (engineReplica, error) {
				m := models.NewInstanceSegmentation(detDSOnce(), hp, seed)
				return engineReplica{pipeline.Whole(m, m.Opt), nil, m.Evaluate}, nil
			}}
	case "translation_gnmt":
		hp := gnmtHParams(v)
		row = engineModel{hp.Batch, func() int { return len(mtDSOnce().Train) }, false,
			func(seed uint64) (engineReplica, error) {
				m := models.NewRNNTranslation(mtDSOnce(), hp, seed)
				return engineReplica{pipeline.Whole(m, m.Opt), nil, m.Evaluate}, nil
			}}
	case "translation_transformer":
		hp := models.DefaultTransformerHParams()
		row = engineModel{hp.Batch, func() int { return len(mtDSOnce().Train) }, true,
			func(seed uint64) (engineReplica, error) {
				m := models.NewTranslation(mtDSOnce(), hp, seed)
				st, err := pipeline.StagesOf(m, m.Opt, stages, m.PipelineStages)
				return engineReplica{st, m.Sched, m.Evaluate}, err
			}}
	case "recommendation":
		hp := models.DefaultNCFHParams()
		row = engineModel{hp.Batch, func() int { return len(recDSOnce().Train) }, false,
			func(seed uint64) (engineReplica, error) {
				m := models.NewRecommendation(recDSOnce(), hp, seed)
				return engineReplica{pipeline.Whole(m, m.Opt), nil, m.Evaluate}, nil
			}}
	default:
		return engineModel{}, fmt.Errorf("core: benchmark %q does not support engine training (supported: image_classification, object_detection_ssd, instance_segmentation_maskrcnn, translation_gnmt, translation_transformer, recommendation)", id)
	}
	if stages > 1 && !row.split {
		return engineModel{}, fmt.Errorf("core: benchmark %q has no pipeline partitioner, so it trains at one stage only, not %d (partitioned: image_classification, translation_transformer)", id, stages)
	}
	return row, nil
}

// EngineBatch returns the benchmark's reference global batch, what a zero
// pipeline.Config.GlobalBatch selects in NewEngine. Cheap: no dataset is
// generated.
func EngineBatch(v Version, id string) (int, error) {
	m, err := engineModelOf(v, id, 1)
	return m.batch, err
}

// NewEngine is the one constructor of a training engine: it builds the
// (v, id) benchmark's model as cfg.Workers replicas of cfg.Stages stages
// from cfg.Seed, fills in the benchmark's dataset size and (when
// cfg.GlobalBatch is zero) its reference batch, and installs the LR
// schedule. With cfg.Mesh set the engine is the one grid cell cfg.Rank
// names. eval is the benchmark's quality metric over the first replica
// built (worker 0 in-process).
//
// Runs sharing seed, global batch, and Microbatches produce bit-identical
// trainable parameters for every (stages, schedule, workers) combination —
// the engine's determinism contract. BatchNorm running statistics
// (eval-time buffers) accumulate per replica from its own microbatches, as
// in real DDP without synchronized BN, so measured quality and
// epochs-to-target can differ slightly across worker counts.
func NewEngine(v Version, id string, cfg pipeline.Config) (eng *pipeline.Engine, eval func() float64, err error) {
	m, err := engineModelOf(v, id, cfg.Stages)
	if err != nil {
		return nil, nil, err
	}
	if cfg.GlobalBatch <= 0 {
		cfg.GlobalBatch = m.batch
	}
	cfg.DatasetN = m.datasetN()

	// Every replica builds the same LR schedule and all share one step
	// count, so the first one's drives the engine. A partitioner error
	// (stages deeper than the model has splittable units) ends New at the
	// first replica and outranks New's complaint about the stage count it
	// caused.
	var first *engineReplica
	var buildErr error
	eng, err = pipeline.New(cfg, func(int) []pipeline.StageReplica {
		r, err := m.replica(cfg.Seed)
		if first == nil {
			first, buildErr = &r, err
		}
		return r.stages
	})
	if buildErr != nil {
		return nil, nil, fmt.Errorf("core: %w", buildErr)
	}
	if err != nil {
		return nil, nil, err
	}
	eng.SetLRSchedule(first.sched)
	return eng, first.eval, nil
}

// serial reports whether p names no topology, which is a serial run. The
// schedule alone names none (cmd/mlperf always sets it).
func (p Parallel) serial() bool { return p.DP == 0 && p.PPStages == 0 && p.Microbatches == 0 }

// engineConfig is the one mapping from a topology and regime to the engine
// that trains them, and so the one place that decides what a serial run
// is: one replica of one stage taking each global batch as one microbatch
// (K = S = M = 1). Every other default, Microbatches included, is
// pipeline.Config.Resolved's.
func engineConfig(p Parallel, num precision.Numerics) pipeline.Config {
	cfg := pipeline.Config{
		Endpoint: transport.Endpoint{Workers: p.DP},
		Stages:   p.PPStages, Microbatches: p.Microbatches, Schedule: pipeline.Schedule(p.PPSchedule),
		Numerics: num,
	}
	switch {
	case p.serial():
		cfg.Workers, cfg.Stages, cfg.Microbatches = 1, 1, 1
	case p.PPStages == 0:
		cfg.Stages = 1
	case cfg.Workers == 0:
		cfg.Workers = 1
	}
	return cfg
}

// engineNew is the New constructor of a benchmark that trains on the
// engine: every run builds cfg's engine for (v, id) from its seed and
// wraps it as a models.Workload, so Run/RunSet apply the §3.2.1 timing
// rules and emit compliant MLLOG streams at every topology alike.
func engineNew(v Version, id string, cfg pipeline.Config) func(seed uint64) models.Workload {
	// One arena for all of this benchmark's runs: each run's engine draws
	// its gradient/aggregate/ring buffers from the shared pool and Close
	// (called by core.Run at run end) returns them, so a run set recycles
	// buffers across runs instead of growing the heap. The arena is
	// goroutine-safe, so concurrent run sets can share it too.
	cfg.Arena = arena.New()
	return func(seed uint64) models.Workload {
		cfg := cfg
		cfg.Seed = seed
		eng, eval, err := NewEngine(v, id, cfg)
		if err != nil {
			panic(err)
		}
		return pipeline.NewWorkload(eng, eval)
	}
}

// engineBenchmark is Configure's path for everything but the suite row
// itself: a copy of the suite benchmark whose New trains p's topology in
// the num regime.
func engineBenchmark(v Version, id string, p Parallel, num precision.Numerics) (Benchmark, error) {
	b, err := FindBenchmark(v, id)
	if err != nil {
		return Benchmark{}, err
	}
	cfg := engineConfig(p, num)
	m, err := engineModelOf(v, id, cfg.Stages)
	if err != nil {
		return Benchmark{}, err
	}
	// Surface config errors here, on the clean error path, rather than as a
	// run-time panic from NewEngine inside b.New.
	cfg.GlobalBatch, cfg.DatasetN = m.batch, m.datasetN()
	if _, err := cfg.Resolved(); err != nil {
		return Benchmark{}, fmt.Errorf("core: %w", err)
	}
	b.New, b.Numerics = engineNew(v, id, cfg), num

	switch {
	case p.serial(): // the suite's own model string
	case p.PPStages == 0:
		b.Model += fmt.Sprintf(" [data-parallel ×%d]", cfg.Workers)
	case cfg.Workers > 1:
		b.Model += fmt.Sprintf(" [hybrid DP×%d PP×%d]", cfg.Workers, cfg.Stages)
	default:
		b.Model += fmt.Sprintf(" [pipeline ×%d]", cfg.Stages)
	}
	if num != (precision.Numerics{}) {
		b.Model += fmt.Sprintf(" [numerics %s]", NumericsTag(num))
	}
	return b, nil
}

// Compile-time check: the engine workload wrapper satisfies the harness
// contract.
var _ models.Workload = (*pipeline.Workload)(nil)

package grid

import (
	"fmt"
	"sync"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// Engine is the slice of the pipeline engine's surface a grid worker
// drives: fixed-step training, sticky failure, and the local parameter
// shard for digesting.
type Engine interface {
	// StepNext draws the next global minibatch and executes one step,
	// returning the LOCAL loss contribution (shard mode).
	StepNext() float64
	// Steps returns the optimizer steps taken.
	Steps() int
	// Err returns the first step failure (typically *transport.PeerError).
	Err() error
	// Params returns the locally-hosted parameter shard.
	Params() []*autograd.Param
	// FlatSize returns the local flattened gradient length in elements.
	FlatSize() int
	// CaptureTrainState snapshots the locally-hosted training state (the
	// rank's cell in shard mode) for internal/ckpt serialization.
	CaptureTrainState() *models.TrainState
	// RestoreTrainState restores a captured state bit-identically.
	RestoreTrainState(*models.TrainState) error
	// Close tears the engine down (an injected Mesh is left open).
	Close()
}

var _ Engine = (*pipeline.Engine)(nil)

// Datasets are generated once per process — deterministic synthetic data,
// so every process derives the identical dataset from the config alone.
var (
	imgDSOnce = sync.OnceValue(func() *datasets.ImageDataset {
		return datasets.GenerateImages(datasets.DefaultImageConfig())
	})
	mtDSOnce = sync.OnceValue(func() *datasets.MTDataset {
		return datasets.GenerateMT(datasets.DefaultMTConfig())
	})
	recDSOnce = sync.OnceValue(func() *datasets.RecDataset {
		return datasets.GenerateRec(datasets.DefaultRecConfig())
	})
)

// imageHParams mirrors internal/core's round-aware hyperparameters.
func imageHParams(version string) models.ImageHParams {
	hp := models.DefaultImageHParams()
	if version == "v0.6" {
		hp.UseLARS = true
		hp.WarmupEpochs = 2
	}
	return hp
}

// DefaultBatch returns the benchmark's reference global batch — what a zero
// Spec.GlobalBatch selects. Cheap: no dataset is generated.
func DefaultBatch(benchmark, version string) (int, error) {
	switch benchmark {
	case "recommendation":
		return models.DefaultNCFHParams().Batch, nil
	case "image_classification":
		return imageHParams(version).Batch, nil
	case "translation_transformer":
		return models.DefaultTransformerHParams().Batch, nil
	}
	return 0, fmt.Errorf("grid: unsupported benchmark %q (want recommendation, image_classification, or translation_transformer)", benchmark)
}

// Build constructs the spec's engine for one grid cell. A non-nil mesh
// selects multi-process shard mode: the engine hosts only the cell `rank`
// names (rank = k·PP + s) and reaches the other cells through the mesh. A
// nil mesh builds the whole grid in-process over the channel fabric — the
// reference configuration.
func Build(spec Spec, mesh transport.Mesh, rank int) (Engine, error) {
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	batch := spec.GlobalBatch
	if batch <= 0 {
		var err error
		batch, err = DefaultBatch(spec.Benchmark, spec.Version)
		if err != nil {
			return nil, err
		}
	}
	ep := transport.Endpoint{Workers: spec.DP, Chunks: spec.Chunks, Mesh: mesh, Rank: rank}
	if mesh == nil {
		ep.Rank = 0
	}
	cfg := pipeline.Config{
		Endpoint: ep,
		Stages:   spec.PP, Microbatches: spec.Microbatches,
		Schedule:    pipeline.Schedule(spec.Schedule),
		GlobalBatch: batch, Seed: spec.Seed,
	}
	if spec.PP == 1 && spec.Microshards != 0 {
		cfg.Microbatches = spec.Microshards
	}

	// build makes one worker's replica: its stages and its LR schedule.
	var build func() ([]pipeline.StageReplica, opt.Schedule, error)
	switch spec.Benchmark {
	case "recommendation":
		if spec.PP > 1 {
			return nil, fmt.Errorf("grid: benchmark %q has no pipeline partitioner (use PP == 1)", spec.Benchmark)
		}
		ds, hp := recDSOnce(), models.DefaultNCFHParams()
		cfg.DatasetN = len(ds.Train)
		build = func() ([]pipeline.StageReplica, opt.Schedule, error) {
			m := models.NewRecommendation(ds, hp, spec.Seed)
			return pipeline.Whole(m, m.Opt), nil, nil
		}
	case "image_classification":
		ds, hp := imgDSOnce(), imageHParams(spec.Version)
		cfg.DatasetN = ds.Cfg.TrainN
		build = func() ([]pipeline.StageReplica, opt.Schedule, error) {
			m := models.NewImageClassification(ds, hp, spec.Seed)
			st, err := pipeline.StagesOf(m, m.Opt, spec.PP, m.PipelineStages)
			return st, m.Sched, err
		}
	case "translation_transformer":
		ds, hp := mtDSOnce(), models.DefaultTransformerHParams()
		cfg.DatasetN = len(ds.Train)
		build = func() ([]pipeline.StageReplica, opt.Schedule, error) {
			m := models.NewTranslation(ds, hp, spec.Seed)
			st, err := pipeline.StagesOf(m, m.Opt, spec.PP, m.PipelineStages)
			return st, m.Sched, err
		}
	default:
		return nil, fmt.Errorf("grid: unsupported benchmark %q (want recommendation, image_classification, or translation_transformer)", spec.Benchmark)
	}

	// Every replica builds the same schedule and all share one step count,
	// so any one of them drives the engine. A partitioner error (PP deeper
	// than the model has splittable units) ends New at that worker and
	// outranks New's complaint about the stage count it caused.
	var sched opt.Schedule
	var buildErr error
	eng, err := pipeline.New(cfg, func(int) (st []pipeline.StageReplica) {
		st, sched, buildErr = build()
		return st
	})
	if buildErr != nil {
		return nil, fmt.Errorf("grid: %w", buildErr)
	}
	if err != nil {
		return nil, err
	}
	eng.SetLRSchedule(sched)
	return eng, nil
}

package core

import (
	"repro/internal/precision"
	"repro/internal/tensor"
)

// Parallel describes a run's training topology: how many data-parallel
// replicas, how the gradient reduction is sliced, and whether (and how) the
// model is split into pipeline stages. The zero value is serial training.
type Parallel struct {
	// DP is K, the data-parallel replica count. 0 means no data
	// parallelism (serial, unless PPStages splits the model); with
	// PPStages > 0 it replicates every stage instead (hybrid DP×PP).
	DP int
	// PPStages is S, the pipeline depth; 0 selects no pipeline. The model
	// is split into S cost-balanced contiguous stages on the
	// internal/pipeline engine.
	PPStages int
	// PPSchedule is the microbatch schedule for PPStages ("gpipe" or
	// "1f1b"; empty selects gpipe). Never affects results.
	PPSchedule string
	// Microbatches is the gradient-reduction grain, a multiple of DP: each
	// global batch is split into this many microbatches whose gradients
	// are summed in a fixed order. Runs sharing seed, batch, and
	// Microbatches are bit-identical across every (stages, schedule, DP)
	// combination. 0 selects a default for the shape: without PPStages, 8
	// when DP divides 8 and DP otherwise; with PPStages, the engine's
	// (pipeline.Config.Microbatches).
	Microbatches int
}

// TrainConfig is the run configuration: one value selects the topology and
// the numerics regime of an in-process run (a multi-process run over TCP
// is one OS process per grid cell, launched through cmd/mlperf-worker; see
// internal/grid). Build one TrainConfig, call Configure, and hand the
// resulting Benchmark to Run/RunSet.
type TrainConfig struct {
	// Parallel is the training topology (zero value = serial).
	Parallel Parallel
	// Numerics is the training compute regime (§2.2.3); the zero value is
	// the bitwise-verified float64 reference.
	Numerics precision.Numerics
}

// Configure resolves a TrainConfig against the suite: it returns a copy of
// the (v, id) benchmark whose New constructor builds the configured
// topology and regime, ready for Run/RunSet. Unsupported combinations
// (a benchmark without a partitioner, mixed precision across pipeline
// shards, a grain that is not a multiple of DP) surface as errors here, on
// the clean configuration path, rather than as run-time panics; the
// topology rules themselves are pipeline.Config.Resolved's.
func Configure(v Version, id string, cfg TrainConfig) (Benchmark, error) {
	p := cfg.Parallel
	switch {
	case p.PPStages != 0 || p.DP != 0 || p.Microbatches != 0:
		return engineBenchmark(v, id, p, cfg.Numerics)
	case cfg.Numerics.Compute != tensor.Float64 || cfg.Numerics.Mixed:
		return numericsBenchmark(v, id, cfg.Numerics)
	default:
		return FindBenchmark(v, id)
	}
}

package core

import (
	"fmt"

	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Parallel describes a run's training topology: how many data-parallel
// replicas, how the gradient reduction is sliced, and whether (and how) the
// model is split into pipeline stages. The zero value is serial training.
type Parallel struct {
	// DP is K, the data-parallel replica count. 0 means no data
	// parallelism (serial, unless PPStages splits the model); with
	// PPStages > 0 it replicates every stage instead (hybrid DP×PP).
	DP int
	// Microshards pins the gradient-reduction granularity without
	// PPStages (0 selects 8 when DP divides 8, else DP). Runs sharing seed,
	// batch, and Microshards are bit-identical at every DP count dividing
	// it. Only meaningful without PPStages.
	Microshards int
	// PPStages is S, the pipeline depth; 0 selects no pipeline. The model
	// is split into S cost-balanced contiguous stages on the
	// internal/pipeline engine.
	PPStages int
	// PPSchedule is the microbatch schedule for PPStages ("gpipe" or
	// "1f1b"; empty selects gpipe). Never affects results.
	PPSchedule string
	// Microbatches pins the reduction granularity under PPStages
	// (0 = auto). Runs sharing seed, batch, and Microbatches are
	// bit-identical across every (stages, schedule, DP) combination.
	Microbatches int
}

// TrainConfig is the run configuration: one value selects the topology,
// the numerics regime, and the transport backend. Build one TrainConfig,
// call Configure, and hand the resulting Benchmark to Run/RunSet.
type TrainConfig struct {
	// Parallel is the training topology (zero value = serial).
	Parallel Parallel
	// Numerics is the training compute regime (§2.2.3); the zero value is
	// the bitwise-verified float64 reference.
	Numerics precision.Numerics
	// Transport names the communication backend for the engines ("" or
	// "chan" = the in-process channel fabric). The "tcp" backend needs one
	// OS process per grid cell and is therefore launched through
	// cmd/mlperf-worker and a rendezvous coordinator, not through
	// Configure — see internal/grid.
	Transport transport.Backend
}

// Configure resolves a TrainConfig against the suite: it returns a copy of
// the (v, id) benchmark whose New constructor builds the configured
// topology and regime, ready for Run/RunSet. Unsupported combinations
// (a benchmark without a partitioner, mixed precision across pipeline
// shards, the tcp transport) surface as errors here, on the clean
// configuration path, rather than as run-time panics.
func Configure(v Version, id string, cfg TrainConfig) (Benchmark, error) {
	backend, err := transport.ParseBackend(string(cfg.Transport))
	if err != nil {
		return Benchmark{}, fmt.Errorf("core: %w", err)
	}
	if backend != transport.Chan {
		return Benchmark{}, fmt.Errorf("core: transport backend %q needs one OS process per grid cell — launch the run through cmd/mlperf-worker (rendezvous coordinator + TCP mesh; see internal/grid) instead of Configure", backend)
	}
	p := cfg.Parallel
	switch {
	case p.PPStages != 0 || p.DP != 0 || p.Microshards != 0:
		return engineBenchmark(v, id, p, cfg.Numerics)
	case cfg.Numerics.Compute != tensor.Float64 || cfg.Numerics.Mixed:
		return numericsBenchmark(v, id, cfg.Numerics)
	default:
		return FindBenchmark(v, id)
	}
}

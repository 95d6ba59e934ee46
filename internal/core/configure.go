package core

import "repro/internal/precision"

// Parallel describes a run's training topology: how many data-parallel
// replicas, how the gradient reduction is sliced, and whether the model
// is split into pipeline stages. The zero value is serial training:
// the same engine as every other topology, at one replica of one stage
// taking each global batch as one microbatch (K = S = M = 1).
type Parallel struct {
	// DP is K, the data-parallel replica count. 0 means no data
	// parallelism (serial, unless PPStages splits the model); with
	// PPStages > 0 it replicates every stage instead (hybrid DP×PP).
	DP int
	// PPStages is S, the pipeline depth; 0 selects no pipeline. The model
	// is split into S cost-balanced contiguous stages on the
	// internal/pipeline engine.
	PPStages int
	// Microbatches is the gradient-reduction grain, a multiple of DP: each
	// global batch is split into this many microbatches whose gradients
	// are summed in a fixed order. Runs sharing seed, batch, and
	// Microbatches are bit-identical across every (stages, DP)
	// combination. 0 selects the engine's default for the shape
	// (pipeline.Config.Microbatches: DP without PPStages), the same one a
	// multi-process grid.Spec selects.
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
// topology and regime (named by its Numerics, which Run logs), ready for
// Run/RunSet. Unsupported combinations
// (a benchmark the engine does not train, a benchmark without a
// partitioner, mixed precision across pipeline shards, a grain that is not
// a multiple of DP) surface as errors here, on the clean configuration
// path, rather than as run-time panics; the topology rules themselves are
// pipeline.Config.Resolved's. The zero TrainConfig is the suite row itself.
func Configure(v Version, id string, cfg TrainConfig) (Benchmark, error) {
	if cfg.Parallel.serial() && cfg.Numerics == (precision.Numerics{}) {
		return FindBenchmark(v, id)
	}
	return engineBenchmark(v, id, cfg.Parallel, cfg.Numerics)
}

// NumericsTag renders a regime for logs and model strings: the compute
// dtype, suffixed with "+mp" when the mixed-precision recipe (master
// weight rounds + dynamic loss scaling) is layered on top.
func NumericsTag(num precision.Numerics) string {
	tag := num.Compute.String()
	if num.Mixed() {
		tag += "+mp"
	}
	return tag
}

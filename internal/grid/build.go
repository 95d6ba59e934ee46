package grid

import (
	"repro/internal/autograd"
	"repro/internal/core"
	"repro/internal/models"
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

// DefaultBatch returns the benchmark's reference global batch — what a zero
// Spec.GlobalBatch selects. Cheap: no dataset is generated.
func DefaultBatch(benchmark, version string) (int, error) {
	return core.EngineBatch(core.Version(version), benchmark)
}

// Build constructs the spec's engine for one grid cell. A non-nil mesh
// selects multi-process shard mode: the engine hosts only the cell `rank`
// names (rank = k·PP + s) and reaches the other cells through the mesh. A
// nil mesh (with rank 0) builds the whole grid in-process over the channel
// fabric — the reference configuration. The model, its hyperparameters
// and the engine's validation are core.NewEngine's; Build only translates
// the Spec.
func Build(spec Spec, mesh transport.Mesh, rank int) (Engine, error) {
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := pipeline.Config{
		Endpoint: transport.Endpoint{Workers: spec.DP, Mesh: mesh, Rank: rank},
		Stages:   spec.PP, Microbatches: spec.Microbatches,
		Schedule:    pipeline.Schedule(spec.Schedule),
		GlobalBatch: spec.GlobalBatch, Seed: spec.Seed,
	}
	if spec.PP == 1 && spec.Microshards != 0 {
		cfg.Microbatches = spec.Microshards
	}
	eng, _, err := core.NewEngine(core.Version(spec.Version), spec.Benchmark, cfg)
	if err != nil {
		return nil, err
	}
	return eng, nil
}

// Package dist is the data-parallel configuration of the repo's one
// training engine: K replicas of a whole model, each training on a
// data.Shard slice of every global minibatch and exchanging gradients
// through a chunked ring all-reduce (transport.Ring), the pattern of the
// TPU-pod and GPU-cluster submissions the paper reports (§5, Figures 4–5).
// It is the one-stage column of internal/pipeline: New translates a Config
// into pipeline.Config{Stages: 1}, and the step loop, failure cascade,
// checkpoint cover and shard mode (Config.Mesh) are that package's.
//
// Determinism: every global batch is split into F = Config.Microshards
// contiguous shards, each microshard's gradient is computed by exactly one
// worker, and the ring sums them in ascending order however they are spread
// over workers. Runs sharing seed, global batch, and Microshards are
// therefore bit-identical at ANY worker count dividing Microshards, and
// K = 1 matches a hand-written loop, as this package's tests assert.
package dist

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/transport"
)

// Replica couples one worker's model replica with its optimizer. Every
// replica applies the identical aggregated gradient once per step, so
// replicas (and their optimizer states) stay bit-identical forever.
type Replica struct {
	Model pipeline.Trainable
	Opt   opt.Optimizer
}

// Config parameterizes the engine. The embedded transport.Endpoint carries
// Workers (K), Chunks, Clock, and the transport selection (Backend/Mesh/Rank
// for multi-process shard mode).
type Config struct {
	transport.Endpoint

	// GlobalBatch is the per-step example count, split over microshards.
	GlobalBatch int
	// Microshards is F, the fixed gradient-reduction granularity, a
	// multiple of Workers. 0 selects Workers; cross-worker-count
	// bit-identity requires pinning one value (e.g. 8) for every run compared.
	Microshards int
	// DatasetN is the number of training examples the loader shuffles over.
	DatasetN int
	// DropLast forwards to the loader.
	DropLast bool
	// Seed drives epoch shuffling and the per-(step, microshard) RNGs.
	Seed uint64
	// Schedule, when non-nil, sets every replica optimizer's learning rate
	// from the global step before each update.
	Schedule opt.Schedule
	// Arena, when non-nil, is the shared buffer pool the engine draws its
	// steady-state float buffers from and returns them to on Close.
	Arena *arena.Arena
	// Numerics is the compute regime (§2.2.3); zero is the float64 reference.
	Numerics precision.Numerics
}

// Engine is a one-stage pipeline.Engine. The named type, Stats and
// NewRingOver exist because bench/ (frozen in the PR that merged the
// engines) switches on *dist.Engine and calls dist.NewRingOver.
type Engine struct{ *pipeline.Engine }

// Stats is the engine's activity counters.
type Stats = pipeline.Stats

// NewRingOver forwards to transport.NewRingOver.
func NewRingOver(eps []transport.Mesh, chunks, flatLen int, buffers *arena.Arena) *transport.Ring {
	return transport.NewRingOver(eps, chunks, flatLen, buffers)
}

// New builds a data-parallel engine. factory is called sequentially for
// each worker this process hosts — 0..Workers-1 by default, only
// Config.Rank in shard mode — and must return replicas with bit-identical
// initial parameters (build the same model from the same seed).
func New(cfg Config, factory func(worker int) Replica) (*Engine, error) {
	if factory == nil {
		return nil, fmt.Errorf("dist: nil replica factory")
	}
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: cfg.Endpoint, Stages: 1, Microbatches: cfg.Microshards,
		GlobalBatch: cfg.GlobalBatch, DatasetN: cfg.DatasetN, DropLast: cfg.DropLast,
		Seed: cfg.Seed, LR: cfg.Schedule, Arena: cfg.Arena, Numerics: cfg.Numerics,
	}, func(worker int) []pipeline.StageReplica {
		r := factory(worker)
		if r.Model == nil {
			return []pipeline.StageReplica{{}} // refused by pipeline.New as incomplete
		}
		return pipeline.Whole(r.Model, r.Opt)
	})
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return &Engine{eng}, nil
}

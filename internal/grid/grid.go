// Package grid launches and runs multi-process DP×PP training: one OS
// process per (replica, stage) cell of the hybrid grid, a rendezvous
// coordinator for membership and failure detection, and a TCP mesh
// (internal/transport) carrying the ring all-reduce and pipeline boundary
// traffic between the processes.
//
// The layout matches the engine's shard mode: a Spec with DP = K data-
// parallel replicas and PP = S pipeline stages runs as K·S processes, where
// process rank = k·S + s hosts replica k's stage s, every one an
// internal/pipeline engine (PP == 1 is pure data parallelism, the whole
// model as the single stage). Build translates a Spec into a
// pipeline.Config and hands it to core.NewEngine, the constructor every
// in-process run uses too; this package knows no model, dataset or
// hyperparameter. Every process builds the same model from the
// same seed, so the grid trains exactly the run the in-process engine
// trains — the transport copies float64 bits, and the per-step
// parameter-trajectory digests each worker reports through the rendezvous
// (see Digest) witness the bit-identity across backends.
//
// Entry points: cmd/mlperf-worker is the process harness (launcher and
// worker in one binary); Start/Cluster drive a grid from a parent process
// (tests re-exec their own binary); Reference runs the identical spec over
// the in-process channel fabric in ONE process, producing the digests the
// multi-process run must reproduce.
package grid

import (
	"fmt"

	"repro/internal/chaos"
)

// Environment variables carrying a worker process's identity; set by the
// launcher (Start), read by WorkerMain.
const (
	// EnvSpec holds the JSON-encoded Spec.
	EnvSpec = "MLPERF_GRID_SPEC"
	// EnvCoord holds the rendezvous coordinator's address. Its presence is
	// what marks a process as a grid worker (see Worker).
	EnvCoord = "MLPERF_GRID_COORD"
	// EnvRank holds the worker's rank, the one it joins the rendezvous
	// under. Required.
	EnvRank = "MLPERF_GRID_RANK"
)

// Spec describes one multi-process training run. It is JSON-serializable:
// the launcher passes it to every worker through EnvSpec, so all processes
// agree on the topology, seed, and step count — the preconditions for the
// shard-mode engines' bit-identity contract.
type Spec struct {
	// Benchmark selects the workload: any benchmark but
	// "reinforcement_learning". "image_classification" and
	// "translation_transformer" train at any topology, the others at PP == 1
	// only (they have no partitioner).
	Benchmark string `json:"benchmark"`
	// Version is the benchmark round ("v0.5" default, "v0.6" enables the
	// round's rule changes, e.g. LARS for image classification).
	Version string `json:"version,omitempty"`
	// DP is K, the data-parallel replica count (0 selects 1).
	DP int `json:"dp,omitempty"`
	// PP is S, the pipeline depth (0 selects 1 = no pipeline).
	PP int `json:"pp,omitempty"`
	// Microshards is a frozen alias of Microbatches: when non-zero it
	// overrides Microbatches at PP == 1 and is ignored otherwise. It stays
	// because bench/ and parent-written specs set it; new callers set
	// Microbatches.
	Microshards int `json:"microshards,omitempty"`
	// Microbatches pins the reduction grain, a multiple of DP (0 selects
	// the engine's default for the shape).
	Microbatches int `json:"microbatches,omitempty"`
	// Schedule is a frozen name: the engine runs one microbatch order,
	// 1F1B, and Build refuses any value but "" and "1f1b"
	// (pipeline.ErrSchedule). It stays because bench/ sets it.
	Schedule string `json:"schedule,omitempty"`
	// GlobalBatch overrides the benchmark's reference batch when positive.
	GlobalBatch int `json:"global_batch,omitempty"`
	// Steps is the number of optimizer steps each worker executes (0
	// selects 1). Grid runs train a fixed step budget, not to quality — the
	// run-to-target harness stays in internal/core.
	Steps int `json:"steps,omitempty"`
	// Seed drives the shared loader shuffle and per-microbatch RNG streams.
	Seed uint64 `json:"seed"`
	// StragglerMS, when positive, bounds every mesh Recv wait in
	// milliseconds; expiry surfaces a typed *transport.PeerError wrapping
	// transport.ErrStraggler instead of hanging the step.
	StragglerMS int64 `json:"straggler_ms,omitempty"`
	// CkptDir, when set, makes every worker write a sealed per-rank
	// training checkpoint (internal/ckpt) into it every CkptEvery steps.
	// The per-rank files of one step jointly cover the whole grid state.
	CkptDir string `json:"ckpt_dir,omitempty"`
	// CkptEvery is the checkpoint cadence in optimizer steps (requires
	// CkptDir; 0 disables periodic checkpoints).
	CkptEvery int `json:"ckpt_every,omitempty"`
	// Resume makes workers restore from the newest complete checkpoint set
	// in CkptDir before stepping (a missing or empty directory degrades to
	// a fresh run). The supervisor sets it on every respawned generation.
	Resume bool `json:"resume,omitempty"`
	// Gen is the restart generation, 0 for the first launch; a fault
	// fires only in the generation it names.
	Gen int `json:"gen,omitempty"`
	// Faults are the failures the run injects (internal/chaos): each
	// makes its rank exit or hang once the rank reaches its step in its
	// generation. An Exit needs CkptEvery, so the restarted generation
	// has a checkpoint to resume from; a Hang needs StragglerMS, so the
	// peers fail typed instead of blocking forever.
	Faults []chaos.Fault `json:"faults,omitempty"`
}

// normalized returns the spec with defaults applied.
func (s Spec) normalized() Spec {
	if s.Version == "" {
		s.Version = "v0.5"
	}
	s.DP, s.PP, s.Steps = max(s.DP, 1), max(s.PP, 1), max(s.Steps, 1)
	return s
}

// World returns the process count the spec needs: DP×PP grid cells.
func (s Spec) World() int {
	s = s.normalized()
	return s.DP * s.PP
}

// Validate rejects malformed specs on the clean configuration path.
func (s Spec) Validate() error {
	s = s.normalized()
	if s.Benchmark == "" {
		return fmt.Errorf("grid: Spec.Benchmark is empty (want a benchmark ID other than reinforcement_learning)")
	}
	switch s.Version {
	case "v0.5", "v0.6":
	default:
		return fmt.Errorf("grid: unknown version %q (want v0.5 or v0.6)", s.Version)
	}
	if s.CkptEvery > 0 && s.CkptDir == "" {
		return fmt.Errorf("grid: CkptEvery %d without CkptDir", s.CkptEvery)
	}
	if s.Resume && s.CkptDir == "" {
		return fmt.Errorf("grid: Resume without CkptDir")
	}
	for _, f := range s.Faults {
		switch {
		case f.Rank < 0 || f.Rank >= s.World():
			return fmt.Errorf("grid: fault %+v: rank outside world [0, %d)", f, s.World())
		case f.Kind == chaos.Exit && s.CkptEvery <= 0:
			return fmt.Errorf("grid: fault %+v without CkptEvery — the restarted generation could only start from scratch", f)
		case f.Kind == chaos.Hang && s.StragglerMS <= 0:
			return fmt.Errorf("grid: fault %+v needs StragglerMS > 0 — without a straggler bound the peers would block forever on the hung rank", f)
		case f.Kind != chaos.Exit && f.Kind != chaos.Hang:
			return fmt.Errorf("grid: fault %+v: unknown kind (want %q or %q)", f, chaos.Exit, chaos.Hang)
		}
	}
	return nil
}

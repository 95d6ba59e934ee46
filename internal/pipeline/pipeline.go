// Package pipeline is the repo's one training engine: a real — not
// analytic — K×S grid of K data-parallel replicas by S pipeline stages,
// the two scale axes the paper's companions ("Scale MLPerf-0.6 models on
// Google TPU-v3 Pods", "Exploring the Limits of Concurrency in ML Training
// on Google TPUs") treat as one runtime (§5, Figures 4–5). S = 1 is pure
// data parallelism (Whole makes a whole model the single stage), K = 1 pure
// pipelining, K = S = 1 the serial microbatch loop, and K = S = M = 1 a
// serial run: core trains every serial run of every benchmark but MiniGo
// on this engine. A layered model is split into S contiguous
// stages (cost-balanced cuts at block boundaries; see the partitioners in
// internal/models); each global minibatch is split into M microbatches
// that flow through the stage runtimes, which exchange boundary
// activations and activation-gradients over the pluggable transport layer
// (internal/transport). Two microbatch schedules are implemented, selected
// by Config.Schedule:
//
//	GPipe (fill-drain)                    1F1B (one-forward-one-backward)
//	S0 F0 F1 F2 F3 ·· ·· ·· B3 B2 B1 B0   S0 F0 F1 F2 B0 F3 B1 B2 B3
//	S1 ·· F0 F1 F2 F3 ·· B3 B2 B1 B0 ··   S1 ·· F0 F1 B0 F2 B1 F3 B2 B3
//	S2 ·· ·· F0 F1 F2 F3 B3 B2 B1 B0 ··   S2 ·· ·· F0 B0 F1 B1 F2 B2 F3 B3
//
// (Fj/Bj = forward/backward of microbatch j; time flows right. GPipe runs
// every forward before any backward, keeping all M microbatches live; 1F1B
// drains backwards as soon as the pipeline is full, bounding live
// microbatches per stage at S−s while filling the same (S−1)/M bubble.)
//
// The engine runs over ONE mesh of S·K ranks, cell (k, s) at rank k·S + s:
// boundary frames travel between adjacent ranks of a replica, and stage s's
// gradient ring is a transport.Sub view of the same endpoints over ranks
// {k·S + s}. By default the mesh is a private in-process LocalFabric and the
// engine hosts every cell, one goroutine each; with Config.Mesh set it is
// the injected mesh and the engine hosts only the cell Config.Rank names,
// the others being OS processes (multi-process shard mode, launched by
// cmd/mlperf-worker; see internal/grid). Nothing after the choice of mesh
// knows which it is: every cell is built, stepped, aborted, checkpointed
// and restored by the same code over "the cells this process hosts".
// Boundary frames copy float64 bits exactly, so the transport never affects
// results.
//
// # Determinism
//
// Both schedules are bit-identical to the serial microbatch baseline. The
// unit of gradient reduction is the microbatch, at every topology: a
// global batch is split into M contiguous data.Shard slices, each stage computes every owned microbatch's gradient
// into its own row (per-microbatch forward/backward is the same op
// sequence as the unsplit model, because stage boundaries are numerically
// transparent), and rows are summed in ascending microbatch order
// regardless of the schedule's backward execution order. Runs sharing
// seed, global batch, and Microbatches therefore produce bit-identical
// parameters for ANY (Stages, Schedule, Workers) combination — the grid
// the engine's tests assert against the K = S = 1 engine, which
// TestDPMatchesPlainSerialLoop in turn pins to a hand-written loop that
// uses no engine. (Floating-point addition is not associative, so without
// the fixed row order the partial sums would drift across worker counts.)
//
// Boundary transfers need only ordered per-(sender, receiver, stream)
// lanes, which every Mesh guarantees: forward slots are produced and
// consumed in ascending order at every stage, and each schedule fixes one
// backward order shared by every stage (GPipe descending, 1F1B ascending),
// so sender and receiver always agree on the slot sequence — the slot index
// carried in each frame is a corruption check, not a reordering mechanism.
//
// # Hybrid DP×PP
//
// Config.Workers replicates every stage K ways: replica k owns the
// contiguous microbatches [k·M/K, (k+1)·M/K), runs its own pipeline over
// them, and the K replicas of each stage then sum all M gradient rows with
// the chunked ring all-reduce (transport.Ring) — S concurrent stage-group
// rings over disjoint parameter shards, each 1/S the payload of pure data
// parallelism.
package pipeline

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/autograd"
	"repro/internal/clock"
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Boundary stream tags (see the transport.Mesh stream contract). Forward
// and backward boundaries flow between adjacent-stage ranks, disjoint from
// the stage-group rings' same-stage rank pairs, so the tags cannot collide
// with transport.Ring traffic on a shared multi-process mesh.
const (
	streamFwd uint32 = 1 // forward activations, stage s -> s+1
	streamBwd uint32 = 2 // activation gradients, stage s+1 -> s
)

// Schedule selects the microbatch execution order.
type Schedule string

const (
	// GPipe is the fill-drain schedule: all forwards, then all backwards.
	GPipe Schedule = "gpipe"
	// OneFOneB is the 1F1B schedule: after a warmup of S−1−s forwards,
	// stage s alternates one forward with one backward, bounding in-flight
	// activation memory per stage.
	OneFOneB Schedule = "1f1b"
)

// Stage is one contiguous model segment owned by one pipeline stage.
// internal/models workloads implement it structurally (no import needed)
// via their PipelineStages partitioners.
type Stage interface {
	// Params returns the stage's trainable parameter shard in a stable
	// order (identical across replicas built from the same factory+seed).
	Params() []*autograd.Param
	// Forward runs the stage over one microbatch on the given tape. slot
	// identifies the in-flight microbatch (0..M/K−1; always 0 at S == 1)
	// so implementations can keep per-slot input buffers alive until the
	// backward pass. The first stage receives in == nil and assembles the
	// microbatch from idx; later stages receive the upstream boundary
	// activations as differentiable leaves. The last stage returns exactly
	// one output: the scalar microbatch mean loss. All stochasticity must
	// flow through rng (derived from (seed, step, microbatch); see
	// MicroshardRNGInto). The returned slice must stay valid until the next
	// Forward call with the same slot.
	Forward(tape *autograd.Tape, slot int, idx []int, rng *tensor.RNG, in []*autograd.Var) []*autograd.Var
}

// StageReplica couples one stage's segment with its optimizer. Optimizers
// must be elementwise (SGD/Adam/LARS are) so per-stage updates compose to
// the serial full-model update.
type StageReplica struct {
	Stage Stage
	Opt   opt.Optimizer
}

// StageWithOpt is a Stage that carries its own optimizer — what the
// internal/models partitioners return.
type StageWithOpt interface {
	Stage
	Optimizer() opt.Optimizer
}

// Wrap converts a partitioner's stage slice into engine stage replicas
// (the factory return value), pairing each stage with the optimizer it
// carries.
func Wrap[T StageWithOpt](parts []T) []StageReplica {
	out := make([]StageReplica, len(parts))
	for i, p := range parts {
		out[i] = StageReplica{Stage: p, Opt: p.Optimizer()}
	}
	return out
}

// Trainable is the whole-model contract of the one-stage engine.
// internal/models workloads implement it structurally (no import needed):
// the engine drives forward/backward itself, so implementations only build
// the loss for one microbatch.
type Trainable interface {
	// Params returns the replica's trainable parameters in a stable order
	// (identical across replicas built from the same factory and seed).
	Params() []*autograd.Param
	// MicrobatchLoss runs the forward pass over the given example indices
	// and returns the mean loss. All stochasticity (augmentation, negative
	// sampling, dropout) must flow through rng, which the engine derives
	// deterministically from (seed, step, microbatch) so the same
	// microbatch sees the same randomness at every worker count.
	MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var
}

// whole runs an unsplit model as the single stage of a one-stage engine.
type whole struct {
	m   Trainable
	out [1]*autograd.Var
}

func (w *whole) Params() []*autograd.Param { return w.m.Params() }

func (w *whole) Forward(tape *autograd.Tape, _ int, idx []int, rng *tensor.RNG, _ []*autograd.Var) []*autograd.Var {
	w.out[0] = w.m.MicrobatchLoss(tape, idx, rng)
	return w.out[:]
}

// Whole is the factory return value for Stages == 1: the whole model as
// one stage with its optimizer. A one-stage cell runs each microbatch
// forward-then-backward in one slot, so a MicrobatchLoss that keeps a
// single set of batch buffers is safe here.
func Whole(m Trainable, o opt.Optimizer) []StageReplica {
	return []StageReplica{{Stage: &whole{m: m}, Opt: o}}
}

// StagesOf is what a replica factory returns for a model that has a
// partitioner: the whole model as the single stage of a one-stage engine,
// or the partitioner's cut of it.
func StagesOf[T StageWithOpt](m Trainable, o opt.Optimizer, stages int, cut func(int) ([]T, error)) ([]StageReplica, error) {
	if stages == 1 {
		return Whole(m, o), nil
	}
	parts, err := cut(stages)
	return Wrap(parts), err
}

// Config parameterizes the engine. The embedded transport.Endpoint carries
// the communication-group spec: Workers (K, the per-stage replica count;
// K > 1 gives hybrid DP×PP), Clock, and the transport selection (Mesh).
// In multi-process shard mode Mesh's world must be Stages·Workers and Rank
// names the (replica, stage) cell rank = k·Stages + s this process hosts.
type Config struct {
	transport.Endpoint

	// Stages is S, the pipeline depth (>= 1).
	Stages int
	// Microbatches is M, the number of microbatches per global minibatch
	// and the fixed gradient-reduction granularity. It must be a positive
	// multiple of Workers and at most GlobalBatch. 0 selects
	// Workers·min(Stages, GlobalBatch/Workers) — reasonable for that
	// shape, but cross-configuration bit-identity requires pinning
	// Microbatches to one value for every run being compared.
	Microbatches int
	// Schedule picks the microbatch order; empty selects GPipe. It never
	// affects results, only the activation-liveness profile. A one-stage
	// engine has no other stage to overlap with and always runs each
	// microbatch forward-then-backward.
	Schedule Schedule
	// GlobalBatch is the per-step example count.
	GlobalBatch int
	// DatasetN is the number of training examples the loader shuffles.
	DatasetN int
	// DropLast forwards to the loader.
	DropLast bool
	// Seed drives epoch shuffling and per-(step, microbatch) RNG streams
	// (LoaderRNG, MicroshardRNGInto).
	Seed uint64
	// Arena, when non-nil, is the shared buffer pool the engine draws its
	// steady-state float buffers from (and returns them to on Close).
	Arena *arena.Arena
	// Numerics selects the training compute regime (§2.2.3); the zero
	// value is the float64 reference. Reduced regimes keep the determinism
	// contract: the microbatch reduction order is unchanged, and in the
	// mixed (bf16 + loss scaling) regime every replica's scale decision is
	// a function of the identical all-reduced gradient, so the per-replica
	// trainers stay in lockstep. Mixed needs Stages == 1: the overflow
	// skip is one decision over the whole model's gradient, and stage
	// cells have no channel to agree on it.
	Numerics precision.Numerics
}

// Stats counts the engine's communication and compute activity.
type Stats struct {
	// Steps is the number of optimizer steps taken.
	Steps int
	// RingMessages / RingBytes count the stage-group gradient all-reduce
	// traffic (all S rings, whole-ring totals — also in shard mode).
	RingMessages int
	RingBytes    int
	// ActivationSends / ActivationBytes count boundary tensor transfers
	// between adjacent stages (forward activations + backward gradients;
	// tensor payload bytes, excluding frame headers). In shard mode only
	// the locally-hosted cell's sends are counted.
	ActivationSends int
	ActivationBytes int
	// StepTime is cumulative wall time spent inside Step.
	StepTime time.Duration
}

// runtime is one (stage, worker) execution context: a persistent goroutine
// (or the caller's, when the process hosts one cell) with per-slot pooled
// tapes over a private arena free list and the cell's mesh endpoint.
type runtime struct {
	s, k   int
	rank   int // mesh rank k·S + s
	rep    StageReplica
	params []*autograd.Param
	mp     *precision.MP // mixed-precision trainer (nil unless Numerics.Mixed())

	local *arena.Local
	tapes []*autograd.Tape // per in-flight slot
	rng   tensor.RNG

	// mesh is the cell's endpoint on the engine's mesh, at rank: boundary
	// frames go through it directly, ring chunks through a Sub view of it.
	mesh transport.Mesh

	ins  [][]*autograd.Var // per-slot leaf lists (reused backing arrays)
	outs [][]*autograd.Var // per-slot stage outputs (stage-owned slices)

	// rvals holds per-slot received boundary tensors: decoded forward
	// frames live here so LeafOf values stay valid until the slot's
	// backward replay. Tensors are reallocated only on shape change, so
	// warm steps don't allocate.
	rvals [][]*tensor.Tensor

	// enc/rcv are the frame scratch buffers (encode before Send, receive
	// target for Recv). They grow to the largest boundary frame and are
	// then reused — the Send/Recv copies keep warm steps allocation-free.
	enc []float64
	rcv []float64
	// tvals is the reusable value-tensor list sendBoundary frames from.
	tvals []*tensor.Tensor

	sends, bytes int // cumulative activation-transfer accounting

	startCh chan struct{}
}

// Engine is a pipeline-parallel (optionally hybrid data-parallel) trainer.
type Engine struct {
	cfg     Config
	S, K, M int
	mLocal  int

	rts [][]*runtime // [k][s]; nil cells are hosted by other processes
	// owned lists the hosted runtimes in rank order: all S·K cells on the
	// engine's own fabric, the one cell Config.Rank names on an injected
	// mesh.
	owned []*runtime
	// cover is the first hosted worker's cells in stage order: what Params
	// gathers and a checkpoint captures (replicas of a stage are identical).
	cover []*runtime
	// replicas[i] is the i-th hosted worker's parameters, its hosted stages
	// concatenated in stage order; replicas[0] is what Params returns.
	replicas [][]*autograd.Param
	// ownMesh is set when the engine built its own fabric (and must close
	// its endpoints); an injected Config.Mesh is never closed.
	ownMesh bool

	flatLen []int             // per-stage flattened gradient length
	gbuf    [][][]float64     // [s][m]: per-microbatch gradient rows (owned cells only)
	agg     [][][]float64     // [s][k]: per-replica aggregates (owned cells only)
	rings   []*transport.Ring // per-stage group collective (owned stages only)
	losses  []float64         // per-microbatch weighted losses

	loader *data.Loader
	epoch  int
	step   int
	lr     opt.Schedule // SetLRSchedule's; nil leaves the optimizers' rates

	shards [][]int
	invB   float64

	buffers *arena.Arena
	stepWG  sync.WaitGroup
	closed  bool

	// First step failure (peer death, transport error) — sticky; once set
	// the engine refuses further steps. Guarded by failMu.
	failMu  sync.Mutex
	failErr error

	// clock times Step (Config.Clock, defaulted in New).
	clock clock.Clock

	stats Stats
}

// Resolved checks the configuration and returns it with its defaults
// filled in (Microbatches, Schedule). It is the one validation of a run's
// topology: New calls it first, and core.Configure calls it to refuse a
// bad configuration before anything is built.
func (cfg Config) Resolved() (Config, error) {
	if err := cfg.Endpoint.Validate(); err != nil {
		return cfg, fmt.Errorf("pipeline: %w", err)
	}
	if cfg.Stages < 1 {
		return cfg, fmt.Errorf("pipeline: Stages %d < 1", cfg.Stages)
	}
	if cfg.Sharded() && cfg.Mesh.World() != cfg.Stages*cfg.Workers {
		return cfg, fmt.Errorf("pipeline: Mesh world %d != Stages %d × Workers %d", cfg.Mesh.World(), cfg.Stages, cfg.Workers)
	}
	if cfg.GlobalBatch < 1 {
		return cfg, fmt.Errorf("pipeline: GlobalBatch %d < 1", cfg.GlobalBatch)
	}
	if cfg.DatasetN < 1 {
		return cfg, fmt.Errorf("pipeline: DatasetN %d < 1", cfg.DatasetN)
	}
	if cfg.DropLast && cfg.GlobalBatch > cfg.DatasetN {
		return cfg, fmt.Errorf("pipeline: DropLast with GlobalBatch %d > DatasetN %d yields zero steps per epoch", cfg.GlobalBatch, cfg.DatasetN)
	}
	if cfg.Microbatches < 0 {
		return cfg, fmt.Errorf("pipeline: Microbatches %d < 0 (0 selects a default)", cfg.Microbatches)
	}
	if cfg.Microbatches == 0 {
		per := cfg.GlobalBatch / cfg.Workers
		if per > cfg.Stages {
			per = cfg.Stages
		}
		if per < 1 {
			per = 1
		}
		cfg.Microbatches = cfg.Workers * per
	}
	if cfg.Microbatches%cfg.Workers != 0 {
		return cfg, fmt.Errorf("pipeline: Microbatches %d must be a positive multiple of Workers %d", cfg.Microbatches, cfg.Workers)
	}
	if cfg.Microbatches > cfg.GlobalBatch {
		return cfg, fmt.Errorf("pipeline: Microbatches %d > GlobalBatch %d leaves permanently empty microbatches", cfg.Microbatches, cfg.GlobalBatch)
	}
	switch cfg.Schedule {
	case "":
		cfg.Schedule = GPipe
	case GPipe, OneFOneB:
	default:
		return cfg, fmt.Errorf("pipeline: unknown schedule %q (want %q or %q)", cfg.Schedule, GPipe, OneFOneB)
	}
	if cfg.Numerics.Mixed() && cfg.Stages > 1 {
		return cfg, fmt.Errorf("pipeline: mixed-precision numerics need Stages == 1, got %d: the overflow skip is one decision over the whole model's gradient, and stage cells have no channel to agree on it (use the f32 compute regime, or mixed precision at one stage)", cfg.Stages)
	}
	return cfg, nil
}

// New builds an engine. factory is called sequentially for each worker this
// process hosts — 0..Workers-1 in the default mode, only Rank/Stages' worker
// in shard mode — and must return the same number of stages each time, with
// bit-identical initial parameters across workers (build the same model
// from the same seed and partition it identically).
func New(cfg Config, factory func(worker int) []StageReplica) (*Engine, error) {
	cfg, err := cfg.Resolved()
	if err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, fmt.Errorf("pipeline: nil stage factory")
	}
	// A one-stage cell has nothing to overlap with: it runs F_j B_j — the
	// 1F1B arm at warm = S−1−s = 0 — in one slot, whatever was asked for.
	slots := cfg.Microbatches / cfg.Workers
	if cfg.Stages == 1 {
		cfg.Schedule, slots = OneFOneB, 1
	}

	e := &Engine{
		cfg: cfg,
		S:   cfg.Stages, K: cfg.Workers, M: cfg.Microbatches,
		mLocal: cfg.Microbatches / cfg.Workers,
		clock:  cfg.Clock,
	}
	if e.clock == nil {
		e.clock = clock.NewReal()
	}
	e.buffers = cfg.Arena
	if e.buffers == nil {
		e.buffers = arena.New()
	}

	// The one mesh under the engine, and the ranks of it this process
	// hosts. This is the only place that knows whether the mesh is the
	// engine's own.
	endpoint := func(int) transport.Mesh { return cfg.Mesh }
	hosted := []int{cfg.Rank}
	if !cfg.Sharded() {
		endpoint = transport.NewLocalFabric(e.S*e.K, e.buffers).Endpoint
		e.ownMesh = true
		hosted = make([]int, e.S*e.K)
		for rank := range hosted {
			hosted[rank] = rank
		}
	}

	e.rts = make([][]*runtime, e.K)
	for k := range e.rts {
		e.rts[k] = make([]*runtime, e.S)
	}
	e.flatLen = make([]int, e.S)
	var reps []StageReplica
	for i, rank := range hosted {
		k, s := rank/e.S, rank%e.S
		if i == 0 || k != e.owned[i-1].k {
			if reps = factory(k); len(reps) != e.S {
				return nil, fmt.Errorf("pipeline: factory returned %d stages for worker %d, want %d", len(reps), k, e.S)
			}
			e.replicas = append(e.replicas, nil)
		}
		rep := reps[s]
		if rep.Stage == nil || rep.Opt == nil {
			return nil, fmt.Errorf("pipeline: factory returned incomplete stage %d for worker %d", s, k)
		}
		rt := &runtime{s: s, k: k, rank: rank, rep: rep, params: rep.Stage.Params(), mesh: endpoint(rank)}
		rt.mp = cfg.Numerics.NewTrainer(rt.params)
		rt.local = e.buffers.NewLocal()
		rt.tapes = make([]*autograd.Tape, slots)
		for j := range rt.tapes {
			rt.tapes[j] = autograd.NewTapeIn(rt.local) //mlperfvet:owns — runtime state, released in Close
			rt.tapes[j].SetDType(cfg.Numerics.Compute)
		}
		rt.ins = make([][]*autograd.Var, slots)
		rt.outs = make([][]*autograd.Var, slots)
		rt.rvals = make([][]*tensor.Tensor, slots)
		e.rts[k][s] = rt
		e.owned = append(e.owned, rt)
		w := len(e.replicas) - 1
		e.replicas[w] = append(e.replicas[w], rt.params...)
		if k == e.owned[0].k {
			e.cover = append(e.cover, rt)
		}
		if e.flatLen[s] = autograd.FlatSize(rt.params); e.flatLen[s] == 0 {
			return nil, fmt.Errorf("pipeline: stage %d has no parameters", s)
		}
	}
	// Cross-replica identity is only checkable among hosted cells (a shard
	// relies on the launcher's same-factory-same-seed discipline and the
	// rendezvous trajectory digests).
	if rt := e.outOfSync(); rt != nil {
		return nil, fmt.Errorf("pipeline: worker %d stage %d parameters differ from worker %d (factory must build identical replicas)", rt.k, rt.s, e.cover[0].k)
	}

	e.loader = data.NewLoader(cfg.DatasetN, cfg.GlobalBatch, LoaderRNG(cfg.Seed))
	e.loader.DropLast = cfg.DropLast

	// Gradient rows, per-replica aggregates and stage-group rings, for the
	// hosted cells only: each stage-replica owns the rows of its microbatch
	// range, and the ring sums all M rows across the K replicas. Member k of
	// stage s's ring is grid rank k·S + s, so the ring runs over a sub-view
	// of each cell's endpoint (the endpoint itself when S == 1); ring and
	// boundary streams carry different tags, so they share the mesh.
	e.gbuf = make([][][]float64, e.S)
	e.agg = make([][][]float64, e.S)
	e.rings = make([]*transport.Ring, e.S)
	ringEps := make([][]transport.Mesh, e.S)
	members := make([]int, e.K)
	for _, rt := range e.owned {
		s := rt.s
		if e.gbuf[s] == nil {
			e.gbuf[s] = make([][]float64, e.M)
			e.agg[s] = make([][]float64, e.K)
			ringEps[s] = make([]transport.Mesh, e.K)
		}
		for m := rt.k * e.M / e.K; m < (rt.k+1)*e.M/e.K; m++ {
			e.gbuf[s][m] = e.buffers.Get(e.flatLen[s]) //mlperfvet:owns — engine state, released in Close
		}
		e.agg[s][rt.k] = e.buffers.Get(e.flatLen[s]) //mlperfvet:owns — engine state, released in Close
		for k := range members {
			members[k] = k*e.S + s
		}
		ringEps[s][rt.k] = transport.Sub(rt.mesh, members)
	}
	for s, eps := range ringEps {
		if eps != nil {
			e.rings[s] = transport.NewRingOver(eps, 0, e.flatLen[s], e.buffers)
		}
	}
	e.losses = make([]float64, e.M)
	e.shards = make([][]int, e.M)

	// Persistent runtime goroutines (spawning per step would put S·K
	// goroutine launches on the hot path). A single hosted cell — the fully
	// serial S=K=1 shape, or a shard — runs inline in Step instead.
	if len(e.owned) > 1 {
		for _, rt := range e.owned {
			rt.startCh = make(chan struct{}, 1)
			go e.work(rt)
		}
	}
	return e, nil
}

// work is a cell's goroutine: one runStage per token on its start channel,
// until Close closes the channel. The next step starts tens of µs after
// this one ends, so the cell yield-polls before it parks, as the consumer
// of an in-process lane does (transport.YieldPoll has the reasons and the
// bound, after which an idle engine's cells sleep).
//
//mlperfvet:hotpath
func (e *Engine) work(rt *runtime) {
	for {
		transport.YieldPoll(rt.startCh)
		if _, ok := <-rt.startCh; !ok {
			return
		}
		if err := e.runStage(rt); err != nil {
			e.fail(err)
		}
		e.stepWG.Done()
	}
}

// Close stops the persistent stage goroutines and returns the engine's
// buffers (gradient rows, aggregates, ring chunks, tape working sets) to
// its arena. An injected shard-mode Mesh is NOT closed — its lifecycle
// belongs to the launcher. Idempotent; the engine must not be stepped
// afterwards.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, rt := range e.owned {
		if rt.startCh != nil {
			close(rt.startCh)
		}
	}
	for s := 0; s < e.S; s++ {
		for _, buf := range e.gbuf[s] {
			if buf != nil {
				e.buffers.Put(buf)
			}
		}
		for _, buf := range e.agg[s] {
			if buf != nil {
				e.buffers.Put(buf)
			}
		}
		if e.rings[s] != nil {
			e.rings[s].Close()
		}
	}
	e.gbuf, e.agg = nil, nil
	for _, rt := range e.owned {
		if e.ownMesh {
			rt.mesh.Close()
		}
		for _, tape := range rt.tapes {
			tape.ReleaseBuffers()
		}
		rt.local.Flush()
	}
}

// Params returns the first hosted worker's parameters: worker 0's full list
// (its stage shards concatenated in stage order), or a shard's one stage.
// The slice is the engine's; callers must not modify it.
func (e *Engine) Params() []*autograd.Param { return e.replicas[0] }

// FlatSize returns the total flattened gradient length across stages (the
// locally-hosted stage's length in shard mode).
func (e *Engine) FlatSize() int {
	n := 0
	for _, l := range e.flatLen {
		n += l
	}
	return n
}

// Steps returns the number of optimizer steps taken.
func (e *Engine) Steps() int { return e.step }

// Epoch returns the number of completed training epochs.
func (e *Engine) Epoch() int { return e.epoch }

// SetLRSchedule installs (or replaces) the learning-rate schedule that sets
// every stage optimizer's learning rate from the global step before each
// update; without one the optimizers keep their own rates.
func (e *Engine) SetLRSchedule(s opt.Schedule) { e.lr = s }

// Stats returns cumulative activity counters.
func (e *Engine) Stats() Stats {
	st := e.stats
	for _, rt := range e.owned {
		st.ActivationSends += rt.sends
		st.ActivationBytes += rt.bytes
	}
	return st
}

// Err returns the first failure recorded by a step — a peer death or
// transport error, typically a *transport.PeerError — or nil. Once set,
// further Steps are refused (they return 0 immediately).
func (e *Engine) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

func (e *Engine) fail(err error) {
	e.failMu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.failMu.Unlock()
}

// abort withdraws a failed runtime from the grid: its rank is marked down
// on the engine's mesh, which poisons every lane touching it, boundary and
// ring alike, so every runtime blocked on it fails fast and the failure
// cascades across the whole grid instead of deadlocking the step barrier.
func (e *Engine) abort(rt *runtime, err error) { rt.mesh.Fail(rt.rank, err) }

// outOfSync returns a hosted cell whose parameters differ from the first
// hosted replica of its stage, or nil when every hosted replica agrees.
func (e *Engine) outOfSync() *runtime {
	for _, rt := range e.owned {
		if ref := e.rts[e.cover[0].k][rt.s]; rt != ref && !autograd.ParamsEqual(rt.params, ref.params) {
			return rt
		}
	}
	return nil
}

// InSync reports whether all hosted stage replicas hold bit-identical
// parameters across workers (the hybrid DP invariant; trivially true of a
// shard's one cell).
func (e *Engine) InSync() bool { return e.outOfSync() == nil }

// LoaderRNG derives the shuffling stream of an engine's loader from the run
// seed. Exported so serial baselines can traverse the data in exactly the
// engine's order. The stream depends only on the seed, never on the grid
// shape, so every topology sees the same global batches.
func LoaderRNG(seed uint64) *tensor.RNG { return tensor.NewRNG(seed).Split(0xDA7A) }

// MicroshardRNGInto reseeds dst to the deterministic randomness stream for
// microbatch m at the given step of a run seeded with seed: a pure function
// of (seed, step, m), so the same microbatch sees the same stream on every
// grid shape, and serial baselines can replicate the engine's randomness
// exactly. In place, so the steady-state step reseeds its per-cell RNGs
// without allocating. Supports up to 2^20 microbatches.
func MicroshardRNGInto(dst *tensor.RNG, seed uint64, step, m int) {
	var root tensor.RNG
	root.Reseed(seed ^ 0x9E3779B97F4A7C15)
	root.SplitInto(uint64(step)<<20|uint64(m), dst)
}

// StepNext draws the next global minibatch from the engine's loader and
// executes one pipelined step, returning the global mean loss.
func (e *Engine) StepNext() float64 {
	idx, _ := e.loader.Next()
	return e.Step(idx)
}

// TrainEpoch runs one full pass over the training data and returns the
// mean per-step loss. A step failure (see Err) ends the epoch early.
func (e *Engine) TrainEpoch() float64 {
	steps := e.loader.StepsPerEpoch()
	total := 0.0
	for i := 0; i < steps; i++ {
		total += e.StepNext()
		if e.Err() != nil {
			break
		}
	}
	e.epoch++
	return total / float64(steps)
}

// Step executes one pipelined (and, at K > 1, hybrid data-parallel)
// training step over the given global minibatch indices and returns the
// global mean loss (microbatch-size-weighted, equal to the mean over all
// examples). Ragged batches are supported: microbatches left empty by a
// short final batch are skipped symmetrically by every stage. In shard mode
// every process must call Step with the identical index set (the seeded
// loaders guarantee this for StepNext), and the return value is only the
// LOCAL loss contribution — nonzero only at last-stage cells. After a
// failure (Err non-nil) Step returns 0 without stepping.
func (e *Engine) Step(idx []int) float64 {
	if e.Err() != nil {
		return 0
	}
	start := e.clock.Now()
	e.begin(idx)

	if len(e.owned) == 1 {
		// The serial S=K=1 shape and shard mode both host one cell: run it
		// inline (in shard mode the other cells are other OS processes
		// rendezvousing inside the boundary/ring exchanges).
		if err := e.runStage(e.owned[0]); err != nil {
			e.fail(err)
		}
	} else {
		// Wake every (stage, worker) runtime and wait for the step
		// barrier. The channel sends happen-before each runtime's
		// iteration (shard/invB visibility); the WaitGroup orders runtime
		// writes before the loss reduction below.
		e.stepWG.Add(len(e.owned))
		for _, rt := range e.owned {
			rt.startCh <- struct{}{}
		}
		e.stepWG.Wait()
	}
	if err := e.Err(); err != nil {
		// The step died mid-exchange: parameters may be mid-update at some
		// cells, so the engine stays failed rather than pretending the
		// step completed.
		return 0
	}
	if e.K > 1 {
		for s := 0; s < e.S; s++ {
			if e.rings[s] != nil {
				e.stats.RingMessages += e.rings[s].RoundMessages()
				e.stats.RingBytes += e.rings[s].RoundBytes()
			}
		}
	}

	e.step++
	e.stats.Steps++
	e.stats.StepTime += e.clock.Now() - start

	// Fixed ascending-microbatch loss reduction, schedule-invariant.
	loss := 0.0
	for m := 0; m < e.M; m++ {
		loss += e.losses[m]
	}
	return loss
}

// begin lays a step's inputs out for the cells: the microbatch shards of the
// global batch, the loss weight, and zeroed loss slots.
func (e *Engine) begin(idx []int) {
	for m := range e.shards {
		e.shards[m] = data.Shard(idx, m, e.M)
	}
	e.invB = 1 / float64(len(idx))
	clear(e.losses)
}

// runStage is one runtime's contribution to a step: the microbatch
// schedule over its owned slots, then the stage group's ring all-reduce
// and the local optimizer update. A transport failure aborts the runtime's
// grid membership (cascading to every other cell) and surfaces as the
// returned error.
func (e *Engine) runStage(rt *runtime) (err error) {
	defer func() {
		if err != nil {
			e.abort(rt, err)
		}
	}()
	if rt.mp != nil {
		// Round the live weights to the compute format for the whole step:
		// every microbatch sees the same rounded weights.
		rt.mp.BeginStep()
	}
	mL := e.mLocal
	switch e.cfg.Schedule {
	case OneFOneB:
		warm := e.S - 1 - rt.s
		if warm > mL {
			warm = mL
		}
		for j := 0; j < warm; j++ {
			if err := e.forward(rt, j); err != nil {
				return err
			}
		}
		for j := warm; j < mL; j++ {
			if err := e.forward(rt, j); err != nil {
				return err
			}
			if err := e.backward(rt, j-warm); err != nil {
				return err
			}
		}
		for j := mL - warm; j < mL; j++ {
			if err := e.backward(rt, j); err != nil {
				return err
			}
		}
	default: // GPipe fill-drain
		for j := 0; j < mL; j++ {
			if err := e.forward(rt, j); err != nil {
				return err
			}
		}
		for j := mL - 1; j >= 0; j-- {
			if err := e.backward(rt, j); err != nil {
				return err
			}
		}
	}

	// Hybrid DP leg: sum all M gradient rows of this stage's shard in
	// ascending microbatch order across the K replicas, then apply the
	// identical aggregated update on every replica.
	mlo, mhi := rt.k*e.M/e.K, (rt.k+1)*e.M/e.K
	agg := e.agg[rt.s][rt.k]
	if err := e.rings[rt.s].AllReduce(rt.k, e.gbuf[rt.s], mlo, mhi, agg); err != nil {
		return err
	}
	autograd.ScatterGrads(agg, rt.params)
	opt.ApplySchedule(rt.rep.Opt, e.lr, e.step)
	if rt.mp != nil {
		// Apply restores the float64 masters, checks the all-reduced
		// (scaled) gradient for overflow, and unscales before stepping.
		// Every replica sees the identical aggregate, so every replica
		// makes the identical skip/backoff/growth decision.
		rt.mp.Apply(rt.rep.Opt)
	} else {
		rt.rep.Opt.Step()
	}
	return nil
}

// sendBoundary frames a tensor list and sends it to the adjacent-stage
// rank: [slot, ntensors, {rank, dims..., data...}...] for forwards (the
// receiver rebuilds shapes), [slot, concat data] for backwards (the
// receiver knows the shapes — they are its own outputs'). All values are
// float64; the integer fields are exact below 2^53.
func (rt *runtime) sendBoundary(to int, stream uint32, j int, tensors []*tensor.Tensor, withShapes bool) error {
	f := rt.enc[:0]
	f = append(f, float64(j))
	if withShapes {
		f = append(f, float64(len(tensors)))
	}
	for _, t := range tensors {
		if withShapes {
			f = append(f, float64(len(t.Shape)))
			for _, d := range t.Shape {
				f = append(f, float64(d))
			}
		}
		f = append(f, t.Data...)
		rt.bytes += t.Size() * 8
	}
	rt.enc = f
	rt.sends++
	return rt.mesh.Send(to, stream, f)
}

// recvFrame receives one boundary frame from the adjacent-stage rank into
// the runtime's scratch and validates its slot index.
func (rt *runtime) recvFrame(from int, stream uint32, j int) ([]float64, error) {
	f, err := rt.mesh.Recv(from, stream, rt.rcv)
	if err != nil {
		return nil, err
	}
	rt.rcv = f // keep the (possibly grown) buffer for reuse
	if len(f) < 1 || int(f[0]) != j {
		return nil, fmt.Errorf("pipeline: stage %d worker %d expected slot %d on stream %d, got frame %v: %w",
			rt.s, rt.k, j, stream, f[:min(len(f), 2)], transport.ErrBadFrame)
	}
	return f[1:], nil
}

// slot maps a cell's j-th microbatch to the tape and buffer slot it runs
// in: its own at S > 1, the single shared one at S == 1, where each
// backward finishes before the next forward starts.
func (e *Engine) slot(j int) int {
	if e.S == 1 {
		return 0
	}
	return j
}

// forward runs the stage's forward pass for the cell's j-th microbatch,
// receiving the upstream boundary (stages > 0) and publishing this stage's
// boundary downstream (stages < S−1).
func (e *Engine) forward(rt *runtime, j int) error {
	m := rt.k*e.M/e.K + j
	shard := e.shards[m]
	if len(shard) == 0 {
		// Skipped symmetrically by every stage; this stage still owns the
		// microbatch's gradient row, which must read as zero.
		row := e.gbuf[rt.s][m]
		for i := range row {
			row[i] = 0
		}
		return nil
	}
	sl := e.slot(j)
	tape := rt.tapes[sl]
	tape.Reset()
	MicroshardRNGInto(&rt.rng, e.cfg.Seed, e.step, m)

	var in []*autograd.Var
	if rt.s > 0 {
		payload, err := rt.recvFrame(rt.rank-1, streamFwd, j)
		if err != nil {
			return err
		}
		// Decode [ntensors, {rank, dims..., data...}...] into the slot's
		// persistent tensors (reallocated only on shape change), then wrap
		// each as a differentiable leaf.
		if len(payload) < 1 {
			return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
		}
		nt := int(payload[0])
		payload = payload[1:]
		vals := rt.rvals[sl]
		if cap(vals) < nt {
			vals = make([]*tensor.Tensor, nt)
		}
		vals = vals[:nt]
		in = rt.ins[sl][:0]
		for i := 0; i < nt; i++ {
			if len(payload) < 1 {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			nd := int(payload[0])
			if len(payload) < 1+nd {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			n := 1
			sameShape := vals[i] != nil && len(vals[i].Shape) == nd
			for d := 0; d < nd; d++ {
				dim := int(payload[1+d])
				n *= dim
				sameShape = sameShape && vals[i].Shape[d] == dim
			}
			if !sameShape {
				// Shape change (first use, ragged final batch): rebuild the
				// slot's persistent tensor. Off the warm path by design.
				shape := make([]int, nd)
				for d := range shape {
					shape[d] = int(payload[1+d])
				}
				vals[i] = tensor.New(shape...)
			}
			payload = payload[1+nd:]
			if len(payload) < n {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated forward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			copy(vals[i].Data, payload[:n])
			payload = payload[n:]
			in = append(in, tape.LeafOf(vals[i]))
		}
		if len(payload) != 0 {
			return fmt.Errorf("pipeline: stage %d worker %d slot %d: %d trailing elements in forward frame: %w", rt.s, rt.k, j, len(payload), transport.ErrBadFrame)
		}
		rt.rvals[sl] = vals
		rt.ins[sl] = in
	}

	outs := rt.rep.Stage.Forward(tape, sl, shard, &rt.rng, in)
	rt.outs[sl] = outs

	if rt.s < e.S-1 {
		vals := rt.tvals[:0]
		for _, o := range outs {
			vals = append(vals, o.Value)
		}
		rt.tvals = vals
		return rt.sendBoundary(rt.rank+1, streamFwd, j, vals, true)
	}
	return nil
}

// backward runs the stage's backward pass for the cell's j-th microbatch:
// seed the output gradients (from downstream, or the loss seed — 1, or the
// loss scale in the mixed regime — on the last stage), replay the slot's
// tape, send the input-boundary gradients upstream, and flatten this
// microbatch's parameter gradient into its reduction row. Seeding strictly
// before replay preserves the serial elementwise accumulation order for
// boundaries that are both forwarded and consumed locally (e.g. the
// Transformer's attention memory).
func (e *Engine) backward(rt *runtime, j int) error {
	m := rt.k*e.M/e.K + j
	shard := e.shards[m]
	if len(shard) == 0 {
		return nil // row zeroed at forward time
	}
	sl := e.slot(j)
	tape := rt.tapes[sl]
	outs := rt.outs[sl]
	for _, p := range rt.params {
		p.ZeroGrad()
	}

	wgt := float64(len(shard)) * e.invB
	if rt.s == e.S-1 {
		loss := outs[0]
		e.losses[m] = loss.Scalar() * wgt
		scale := 1.0
		if rt.mp != nil {
			scale = rt.mp.Scale()
		}
		tape.BackwardScaled(loss, scale)
	} else {
		payload, err := rt.recvFrame(rt.rank+1, streamBwd, j)
		if err != nil {
			return err
		}
		// The frame is the concatenated gradients of this stage's outputs,
		// in output order (the downstream stage's input-leaf order).
		// Elementwise add in index order — the same accumulation the
		// in-process pointer handoff performed.
		for _, o := range outs {
			g := o.Grad.Data
			if len(payload) < len(g) {
				return fmt.Errorf("pipeline: stage %d worker %d slot %d: truncated backward frame: %w", rt.s, rt.k, j, transport.ErrBadFrame)
			}
			for i := range g {
				g[i] += payload[i]
			}
			payload = payload[len(g):]
		}
		if len(payload) != 0 {
			return fmt.Errorf("pipeline: stage %d worker %d slot %d: %d trailing elements in backward frame: %w", rt.s, rt.k, j, len(payload), transport.ErrBadFrame)
		}
		tape.BackwardSeeded()
	}

	if rt.s > 0 {
		// Publish the input-leaf gradients upstream (shapes implied: they
		// are the upstream stage's output shapes).
		f := rt.enc[:0]
		f = append(f, float64(j))
		for _, v := range rt.ins[sl] {
			f = append(f, v.Grad.Data...)
			rt.bytes += v.Grad.Size() * 8
		}
		rt.enc = f
		rt.sends++
		if err := rt.mesh.Send(rt.rank-1, streamBwd, f); err != nil {
			return err
		}
	}

	autograd.FlattenGradsScaled(e.gbuf[rt.s][m], rt.params, wgt)
	return nil
}

package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/grid"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// Warm-up steps run in set-up and double as the correctness check: their
// parameter digest (NCF) or losses (transformer) must equal a one-worker
// engine's of the same spec.
const (
	ncfWarmup         = 50
	transformerWarmup = 20
)

// stepKind describes one fixed-step engine workload.
type stepKind struct {
	spec   grid.Spec // Seed is filled per run
	tcp    bool      // one shard engine per rank over a loopback TCPMesh
	warmup int
	expect time.Duration // rough step wall, sizes sample buffers
	chunk  int           // steps a lane of the traced pass takes per turn
	unit   int           // steps between two readings of the witness: a few ms, short enough to fall between the host's slow spells
}

var (
	ncfChan = stepKind{
		spec:   grid.Spec{Benchmark: "recommendation", DP: 2, Microshards: 8},
		warmup: ncfWarmup, expect: 300 * time.Microsecond, chunk: 256, unit: 2,
	}
	ncfTCP = stepKind{
		spec: grid.Spec{Benchmark: "recommendation", DP: 2, Microshards: 8, StragglerMS: 10000},
		tcp:  true, warmup: ncfWarmup, expect: 300 * time.Microsecond, chunk: 256, unit: 2,
	}
	transformerPP2 = stepKind{
		spec:   grid.Spec{Benchmark: "translation_transformer", PP: 2, Microbatches: 4, Schedule: "1f1b"},
		warmup: transformerWarmup, expect: 4 * time.Millisecond, chunk: 16, unit: 1,
	}
)

// sized returns the kind with its step counts cut for the smoke test.
func (k stepKind) sized(rc *runCtx) stepKind {
	k.warmup, k.chunk = rc.steps(k.warmup), rc.steps(k.chunk)
	if !rc.traced {
		k.chunk = k.unit
	}
	return k
}

func (k stepKind) transformer() bool { return k.spec.Benchmark == "translation_transformer" }

// generateDataset regenerates the spec's dataset, the part of set-up that
// grid.Build does once per process and then caches.
func (k stepKind) generateDataset() {
	if k.transformer() {
		datasets.GenerateMT(datasets.DefaultMTConfig())
	} else {
		datasets.GenerateRec(datasets.DefaultRecConfig())
	}
}

// engineSet is the engine under test: one in-process engine, or one
// shard-mode engine per rank stepping in lockstep.
type engineSet struct {
	engines []grid.Engine
	meshes  []*transport.TCPMesh
	batch   int
	// Results of the warm-up steps, for the correctness check.
	digests []string
	losses  []float64
}

func (s *engineSet) close() {
	for _, e := range s.engines {
		e.Close()
	}
	for _, m := range s.meshes {
		m.Close() // read side only; a close error changes nothing here
	}
}

func (s *engineSet) err() error {
	for _, e := range s.engines {
		if err := e.Err(); err != nil {
			return err
		}
	}
	return nil
}

// loopbackMeshes dials an n-rank TCP mesh inside this process.
func loopbackMeshes(n int) ([]*transport.TCPMesh, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[r], addrs[r] = ln, ln.Addr().String()
	}
	meshes := make([]*transport.TCPMesh, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			meshes[r], errs[r] = transport.DialTCPMesh(transport.TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r]})
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, m := range meshes {
				if m != nil {
					m.Close()
				}
			}
			return nil, fmt.Errorf("dial mesh: %w", err)
		}
	}
	return meshes, nil
}

// build constructs the engine set for a seed and runs the warm-up steps.
func (k stepKind) build(seed uint64) (*engineSet, error) {
	spec := k.spec
	spec.Seed = seed
	batch, err := grid.DefaultBatch(spec.Benchmark, spec.Version)
	if err != nil {
		return nil, err
	}
	s := &engineSet{batch: batch}
	if k.tcp {
		if s.meshes, err = loopbackMeshes(spec.World()); err != nil {
			return nil, err
		}
		for r, m := range s.meshes {
			eng, err := grid.Build(spec, m, r)
			if err != nil {
				s.close()
				return nil, err
			}
			s.engines = append(s.engines, eng)
		}
	} else {
		eng, err := grid.Build(spec, nil, 0)
		if err != nil {
			return nil, err
		}
		s.engines = []grid.Engine{eng}
	}
	s.warm(k.warmup)
	if err := s.err(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// warm runs n steps on every engine, digesting each engine's parameters
// after every step and keeping the global losses.
func (s *engineSet) warm(n int) {
	local := make([][]float64, len(s.engines))
	s.digests = make([]string, len(s.engines))
	var wg sync.WaitGroup
	for r, eng := range s.engines {
		local[r] = make([]float64, n)
		wg.Add(1)
		go func(r int, eng grid.Engine) {
			defer wg.Done()
			dig := grid.NewDigest()
			for i := 0; i < n; i++ {
				local[r][i] = eng.StepNext()
				dig.Add(eng.Params())
			}
			s.digests[r] = dig.Sum()
		}(r, eng)
	}
	wg.Wait()
	// Shard engines return their local share of the loss; the global
	// loss is the sum over ranks.
	s.losses = make([]float64, n)
	for i := range s.losses {
		for r := range local {
			s.losses[i] += local[r][i]
		}
	}
}

// buildReference builds the one-worker engine of the same spec: DP-1 for
// NCF, PP-1 for the transformer (grid.Build has no PP-1 transformer, so
// that one goes to pipeline.New with the partitioner's single stage).
func (k stepKind) buildReference(seed uint64) (*engineSet, error) {
	spec := k.spec
	spec.Seed = seed
	batch, err := grid.DefaultBatch(spec.Benchmark, spec.Version)
	if err != nil {
		return nil, err
	}
	var eng grid.Engine
	if k.transformer() {
		ds := datasets.GenerateMT(datasets.DefaultMTConfig())
		var rep *models.Translation
		var stageErr error
		peng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: 1},
			Stages:   1, Microbatches: spec.Microbatches, Schedule: pipeline.Schedule(spec.Schedule),
			GlobalBatch: batch, DatasetN: len(ds.Train), Seed: seed,
		}, func(int) []pipeline.StageReplica {
			rep = models.NewTranslation(ds, models.DefaultTransformerHParams(), seed)
			parts, err := rep.PipelineStages(1)
			stageErr = err
			return pipeline.Wrap(parts)
		})
		if err == nil {
			err = stageErr
		}
		if err != nil {
			return nil, err
		}
		peng.SetLRSchedule(rep.Sched)
		eng = peng
	} else {
		spec.DP = 1
		if eng, err = grid.Build(spec, nil, 0); err != nil {
			return nil, err
		}
	}
	s := &engineSet{engines: []grid.Engine{eng}, batch: batch}
	s.warm(k.warmup)
	if err := s.err(); err != nil {
		s.close()
		return nil, fmt.Errorf("reference warm-up: %w", err)
	}
	return s, nil
}

// stepSample is what a timed slice of steps produced.
type stepSample struct {
	durs   []time.Duration // rank 0's wall per StepNext
	losses []float64       // rank 0's return values: global in-process, local in shard mode
	chunks int             // how many chunks the sample holds
	scores []time.Duration // the slower of the witness's readings before and after, one per chunk
	wall   time.Duration
	finite bool
}

// samples pairs every step's wall in ms, and the rate it amounts to in
// training samples per second, with the witness score of the step's chunk.
// The rate is taken step by step and not chunk by chunk because the
// two-engine TCP step has two modes: a window of two steps is fast only if
// both are, and a quartile over such windows wanders with the modes' mix
// (26 % over ten seeds, where the steps' own quartile moved by 6 %). All
// chunks of the sample had perChunk steps.
func (o stepSample) samples(perChunk, batch int) (units, rates []sample) {
	units, rates = make([]sample, len(o.durs)), make([]sample, len(o.durs))
	for i, d := range o.durs {
		score := o.scores[i/perChunk]
		units[i] = sample{msOf(d), score}
		rates[i] = sample{float64(batch) / d.Seconds(), score}
	}
	return units, rates
}

// chunk runs n lockstep steps on every engine, timing rank 0 on the calling
// goroutine into out. Follower ranks run theirs on their own goroutines.
func (s *engineSet) chunk(rc *runCtx, tr *tracer, n int, out *stepSample) {
	var wg sync.WaitGroup
	for _, eng := range s.engines[1:] {
		wg.Add(1)
		go func(eng grid.Engine) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				eng.StepNext()
			}
		}(eng)
	}
	lead := s.engines[0]
	for i := 0; i < n; i++ {
		h := tr.begin("engine.StepNext", len(out.durs))
		t0 := rc.clk.Now()
		loss := lead.StepNext()
		t1 := rc.clk.Now()
		tr.end(h)
		out.durs = append(out.durs, t1-t0)
		out.losses = append(out.losses, loss)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			out.finite = false
		}
	}
	wg.Wait()
	out.chunks++
}

// newSample sizes a sample's buffers so that a slice of the given budget
// appends without allocating.
func (k stepKind) newSample(budget time.Duration) stepSample {
	n := 2*int(budget/k.expect) + 1024
	return stepSample{durs: make([]time.Duration, 0, n), losses: make([]float64, 0, n), scores: make([]time.Duration, 0, n), finite: true}
}

// run steps the engines, a chunk at a time, until the budget is spent. In
// the untraced pass the witness reads the host's speed between chunks.
func (s *engineSet) run(rc *runCtx, tr *tracer, k stepKind, budget time.Duration) stepSample {
	out := k.newSample(budget)
	start := rc.clk.Now()
	after := rc.wit.read(2)
	for {
		before := after
		s.chunk(rc, tr, k.chunk, &out)
		after = rc.wit.read(2)
		out.scores = append(out.scores, slower(before, after))
		out.wall = rc.clk.Now() - start
		if out.wall >= budget || s.err() != nil {
			return out
		}
	}
}

// checkAgainst compares the warm-up trajectory with the reference
// engine's: digests for NCF, losses for the transformer.
func (s *engineSet) checkAgainst(rc *runCtx, k stepKind, ref *engineSet) {
	if k.transformer() {
		same := len(s.losses) == len(ref.losses)
		for i := 0; same && i < len(s.losses); i++ {
			same = s.losses[i] == ref.losses[i] && !math.IsNaN(s.losses[i]) && !math.IsInf(s.losses[i], 0)
		}
		rc.op(same, "first %d losses differ from the PP-1 engine's", k.warmup)
		return
	}
	for r, d := range s.digests {
		rc.op(d == ref.digests[0], "rank %d parameter digest over %d steps is %s, DP-1 gives %s", r, k.warmup, d, ref.digests[0])
	}
}

// finish counts the slice's steps as operations and applies the
// end-of-run gates.
func (s *engineSet) finish(rc *runCtx, sample stepSample) {
	rc.ops(len(sample.durs))
	if err := s.err(); err != nil {
		rc.op(false, "engine failed: %v", err)
	}
	rc.op(sample.finite, "a step returned a non-finite loss")
	if e, ok := s.engines[0].(interface{ InSync() bool }); ok {
		rc.op(e.InSync(), "replicas are not bit-identical after the run")
	}
}

func runSteps(k stepKind) func(rc *runCtx) {
	return func(rc *runCtx) {
		// Parallelism comes from the engine's workers; a forked kernel loop
		// would add a third busy goroutine on two cores.
		parallel.SetWorkers(1)
		k := k.sized(rc)
		s, ok := setUp(rc, 2, func() (*engineSet, error) {
			k.generateDataset()
			return k.build(rc.seed)
		}, (*engineSet).close)
		if !ok {
			return
		}
		defer s.close()
		h := rc.tr.begin("build one-worker engine", 0)
		ref, err := k.buildReference(rc.seed)
		rc.tr.end(h)
		if err != nil {
			rc.fail(err)
			return
		}
		defer ref.close()
		s.checkAgainst(rc, k, ref)

		if !rc.traced {
			sample := s.run(rc, nil, k, rc.budget)
			s.finish(rc, sample)
			rc.report(sample.samples(k.chunk, s.batch))
			return
		}
		tracedSteps(rc, k, s, ref)
	}
}

// lane is one engine taking turns with others, a chunk at a time, so that
// a slow spell of the host falls on all of them alike and their ratios
// stay meaningful.
type lane struct {
	name   string
	set    *engineSet
	kind   stepKind
	tr     *tracer
	sample stepSample
}

func newLane(name string, set *engineSet, k stepKind, tr *tracer, budget time.Duration) *lane {
	return &lane{name: name, set: set, kind: k, tr: tr, sample: k.newSample(budget)}
}

func roundRobin(rc *runCtx, budget time.Duration, lanes ...*lane) {
	start := rc.clk.Now()
	for rc.clk.Now()-start < budget {
		for _, l := range lanes {
			if l.set.err() != nil {
				return
			}
			h := rc.tr.begin(l.name, l.sample.chunks)
			l.set.chunk(rc, l.tr, l.kind.chunk, &l.sample)
			rc.tr.end(h)
		}
	}
}

// tracedSteps is the per-layer pass of an engine workload: the engine with
// spans off and on, its public counters, the one-worker engine of the same
// spec, the other transport, and the stand-alone layer probes.
func tracedSteps(rc *runCtx, k stepKind, s, ref *engineSet) {
	budget := rc.share(0.55)
	off, on := newLane("engine, spans off", s, k, nil, budget), newLane("engine, spans on", s, k, rc.tr, budget)
	one := newLane("one-worker engine", ref, k, nil, budget)
	lanes := []*lane{off, on, one}
	var other *lane
	if !k.transformer() {
		// The other transport, same spec: the gap between the two rows.
		otherKind := ncfTCP.sized(rc)
		if k.tcp {
			otherKind = ncfChan.sized(rc)
		}
		otherSet, err := otherKind.build(rc.seed)
		if err != nil {
			rc.fail(err)
			return
		}
		defer otherSet.close()
		other = newLane("other-transport engine", otherSet, otherKind, nil, budget)
		lanes = append(lanes, other)
	}
	// Allocations first, with the engine stepping alone: the count is
	// process-wide.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	alone := s.run(rc, nil, k, rc.share(0.05))
	runtime.ReadMemStats(&after)
	s.finish(rc, alone)
	rc.set("autograd.allocs_per_step", float64(after.Mallocs-before.Mallocs)/float64(len(alone.durs)))

	statsBefore := engineStats(s.engines[0])
	roundRobin(rc, budget, lanes...)
	for _, l := range lanes {
		l.set.finish(rc, l.sample)
	}
	st := engineStats(s.engines[0]).minus(statsBefore).per(len(off.sample.durs) + len(on.sample.durs))

	unit := quiet(off.sample.durs, time.Millisecond)
	rc.set("bench.unit_ms_p50", median(off.sample.durs, time.Millisecond))
	rc.set("bench.unit_ms_p99", quantile(off.sample.durs, 0.99, time.Millisecond))
	rc.set("process.trace_overhead_pct", 100*(quiet(on.sample.durs, time.Millisecond)/unit-1))
	ratio := unit / quiet(one.sample.durs, time.Millisecond)

	if k.transformer() {
		rc.set("pipeline.activation_bytes_per_step", st.activationBytes)
		rc.set("pipeline.activation_sends_per_step", st.activationSends)
		rc.set("pipeline.ring_bytes_per_step", st.ringBytes)
		stages, micro := float64(k.spec.PP), float64(k.spec.Microbatches)
		rc.set("pipeline.bubble_share_analytic", (stages-1)/(micro+stages-1))
		rc.set("pipeline.pp2_over_pp1_step_ratio", ratio)
		phaseSplit(rc, "transformer", rc.share(0.2))
		return
	}
	rc.set("dist.ring_bytes_per_step", st.ringBytes)
	rc.set("dist.ring_msgs_per_step", st.ringMsgs)
	rc.set("dist.dp2_over_dp1_step_ratio", ratio)
	tcp, chn := unit, quiet(other.sample.durs, time.Millisecond)
	if !k.tcp {
		tcp, chn = chn, tcp
	}
	rc.set("transport.tcp_over_chan_step_ratio", tcp/chn)

	allreduce, overTCP, err := commProbes(rc, s.engines[0].FlatSize(), k.spec.DP, k.spec.Microshards)
	if err != nil {
		rc.fail(err)
		return
	}
	if k.tcp {
		allreduce = overTCP
	}
	rc.set("dist.allreduce_share", allreduce/unit)
	phaseSplit(rc, "ncf", rc.share(0.15))
}

// counters is the union of dist.Stats and pipeline.Stats, as floats so
// that per-step values divide exactly.
type counters struct {
	ringBytes, ringMsgs, activationBytes, activationSends float64
}

func engineStats(e grid.Engine) counters {
	switch e := e.(type) {
	case *pipeline.Engine:
		st := e.Stats()
		return counters{float64(st.RingBytes), float64(st.RingMessages), float64(st.ActivationBytes), float64(st.ActivationSends)}
	case *dist.Engine:
		st := e.Stats()
		return counters{ringBytes: float64(st.RingBytes), ringMsgs: float64(st.RingMessages)}
	}
	return counters{}
}

func (c counters) minus(o counters) counters {
	return counters{c.ringBytes - o.ringBytes, c.ringMsgs - o.ringMsgs, c.activationBytes - o.activationBytes, c.activationSends - o.activationSends}
}

func (c counters) per(steps int) counters {
	n := float64(steps)
	return counters{c.ringBytes / n, c.ringMsgs / n, c.activationBytes / n, c.activationSends / n}
}

package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/ckpt"
	"repro/internal/parallel"
)

const (
	// ckptEvery is the checkpoint cadence in steps.
	ckptEvery = 25
	// resumeCheckSteps is how many steps after each restore must repeat
	// the uninterrupted engine's losses bit for bit.
	resumeCheckSteps = 10
	// minResumes is the fewest restore cycles a pass makes, whatever its
	// budget: the sample behind ckpt.resume_ms_p50.
	minResumes = 10
	// saveShare of the untraced budget goes to train-and-save cycles, the
	// rest to restores: about fifty saves and a dozen restores in 14 s.
	saveShare = 0.9
)

// ckptRig is the checkpoint workload's set-up: a live PP-2 transformer
// engine, a checkpoint directory, and a second engine of the same spec to
// restore into.
type ckptRig struct {
	live, target *engineSet
	dir          string
	writer       *ckpt.Writer
	// want holds the live engine's losses over the resumeCheckSteps steps
	// after the newest checkpoint: the uninterrupted run. Nil until a
	// resume needs it; a new checkpoint clears it.
	want []float64
}

func (r *ckptRig) close() {
	if r.live != nil {
		r.live.close()
	}
	if r.target != nil {
		r.target.close()
	}
	os.RemoveAll(r.dir) // scratch; a leftover directory is ignored by git
}

func buildCkptRig(rc *runCtx) (*ckptRig, error) {
	k := transformerPP2.sized(rc)
	k.generateDataset()
	r := &ckptRig{}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if r.dir, err = os.MkdirTemp(rc.outDir, "ckpt-"); err != nil {
		return nil, err
	}
	if r.writer, err = ckpt.NewWriter(r.dir, 0); err == nil {
		r.live, err = k.build(rc.seed)
	}
	if err == nil {
		r.target, err = k.build(rc.seed)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// saveSample is what a slice of train-and-checkpoint cycles produced.
type saveSample struct {
	steps                  stepSample
	stalls, capture, write []time.Duration
	stallScores            []time.Duration // the slower of the witness's readings before and after each stall
	bytes                  int64
	err                    error
}

// saveCycles trains ckptEvery steps, then captures and writes a
// checkpoint, until the budget is spent. It always ends right after a
// write, so the newest checkpoint is the live engine's current state. In
// the untraced pass the witness reads the host's speed between steps, as
// it does in transformer_pp2_steps.
func (r *ckptRig) saveCycles(rc *runCtx, tr *tracer, budget time.Duration) saveSample {
	k, every := transformerPP2, rc.steps(ckptEvery)
	out := saveSample{steps: k.newSample(budget)}
	r.want = nil
	eng := r.live.engines[0]
	var path string
	start := rc.clk.Now()
	after := rc.wit.read(2)
	for cycle := 0; ; cycle++ {
		for i := 0; i < every; i++ {
			before := after
			r.live.chunk(rc, tr, 1, &out.steps)
			after = rc.wit.read(2)
			out.steps.scores = append(out.steps.scores, slower(before, after))
		}
		pre := rc.wit.read(1) // the stall is one goroutine's work
		h := tr.begin("checkpoint_stall", cycle)
		hc := tr.begin("Engine.CaptureTrainState", cycle)
		t0 := rc.clk.Now()
		st := eng.CaptureTrainState()
		t1 := rc.clk.Now()
		tr.end(hc)
		hw := tr.begin("ckpt.Writer.Write", cycle)
		path, _, out.err = r.writer.Write(st, 0)
		t2 := rc.clk.Now()
		tr.end(hw)
		tr.end(h)
		out.capture = append(out.capture, t1-t0)
		out.write = append(out.write, t2-t1)
		out.stalls = append(out.stalls, t2-t0)
		out.stallScores = append(out.stallScores, slower(pre, rc.wit.read(1)))
		after = rc.wit.read(2) // the next step's reading before: not one from the far side of the stall
		out.steps.wall = t2 - start
		if out.err != nil || out.steps.wall >= budget || r.live.err() != nil {
			break
		}
	}
	if out.err == nil {
		if fi, err := os.Stat(path); err == nil {
			out.bytes = fi.Size()
		}
	}
	return out
}

// count books a save slice's operations: every step, every save.
func (s saveSample) count(rc *runCtx, r *ckptRig) {
	r.live.finish(rc, s.steps)
	rc.ops(len(s.stalls))
	if s.err != nil {
		rc.op(false, "checkpoint write: %v", s.err)
	}
}

// resumeSample is what a slice of restore cycles produced.
type resumeSample struct {
	units, load, restore []time.Duration
}

// resumeCycles restores the newest checkpoint into the target engine and
// steps it resumeCheckSteps times, at least minResumes times and until the
// budget is spent. Every cycle is one operation: it fails if loading or
// restoring fails, or if a loss differs from the live engine's after the
// same checkpoint.
func (r *ckptRig) resumeCycles(rc *runCtx, tr *tracer, budget time.Duration) resumeSample {
	k, check, least := transformerPP2, rc.steps(resumeCheckSteps), rc.steps(minResumes)
	if r.want == nil {
		// The live engine stands exactly at the newest checkpoint; its
		// next steps are the uninterrupted run.
		s := k.newSample(0)
		r.live.chunk(rc, nil, check, &s)
		r.want = s.losses
	}
	var out resumeSample
	got := k.newSample(0)
	eng := r.target.engines[0]
	start := rc.clk.Now()
	for cycle := 0; ; cycle++ {
		h := tr.begin("resume", cycle)
		hl := tr.begin("ckpt.Latest", cycle)
		t0 := rc.clk.Now()
		st, _, err := ckpt.Latest(r.dir, 0)
		t1 := rc.clk.Now()
		tr.end(hl)
		if err == nil && st == nil {
			err = fmt.Errorf("no checkpoint in %s", r.dir)
		}
		hr := tr.begin("Engine.RestoreTrainState", cycle)
		if err == nil {
			err = eng.RestoreTrainState(st)
		}
		t2 := rc.clk.Now()
		tr.end(hr)
		tr.end(h)
		if err != nil {
			rc.op(false, "resume cycle %d: %v", cycle, err)
			return out
		}
		out.load = append(out.load, t1-t0)
		out.restore = append(out.restore, t2-t1)
		out.units = append(out.units, t2-t0)

		got.durs, got.losses = got.durs[:0], got.losses[:0]
		r.target.chunk(rc, tr, check, &got)
		same := r.target.err() == nil
		for i := 0; same && i < check; i++ {
			same = got.losses[i] == r.want[i]
		}
		rc.op(same, "resume cycle %d: losses after restore %v, uninterrupted %v", cycle, got.losses, r.want)
		if !same || (cycle+1 >= least && rc.clk.Now()-start >= budget) {
			return out
		}
	}
}

func runCkpt(rc *runCtx) {
	parallel.SetWorkers(1) // as the engine workloads
	r, ok := setUp(rc, 2, func() (*ckptRig, error) { return buildCkptRig(rc) }, (*ckptRig).close)
	if !ok {
		return
	}
	defer r.close()
	if rc.traced {
		tracedCkpt(rc, r)
		return
	}
	s := r.saveCycles(rc, nil, rc.share(saveShare))
	s.count(rc, r)
	if s.err != nil {
		return
	}
	r.resumeCycles(rc, nil, rc.share(1-saveShare))
	// The stall is Writer.Write for 99.6 % of its time, and that is encoding
	// and digesting 620 KB far more than waiting for the disk: it takes 51 ms
	// between fast readings of the witness and 67-80 ms between slow ones.
	stalls := make([]sample, len(s.stalls))
	for i, d := range s.stalls {
		stalls[i] = sample{msOf(d), s.stallScores[i]}
	}
	_, rates := s.steps.samples(1, r.live.batch)
	rc.report(stalls, rates)
}

// tracedCkpt is the per-layer pass: save cycles and resume cycles, each
// with spans off then on.
func tracedCkpt(rc *runCtx, r *ckptRig) {
	h := rc.tr.begin("save cycles, spans off", 0)
	saveOff := r.saveCycles(rc, nil, rc.share(0.2))
	rc.tr.end(h)
	saveOn := r.saveCycles(rc, rc.tr, rc.share(0.3))
	saveOff.count(rc, r)
	saveOn.count(rc, r)
	if saveOff.err != nil || saveOn.err != nil {
		return
	}
	h = rc.tr.begin("resume cycles, spans off", 0)
	resOff := r.resumeCycles(rc, nil, rc.share(0.15))
	rc.tr.end(h)
	resOn := r.resumeCycles(rc, rc.tr, rc.share(0.15))
	if len(resOff.units) == 0 || len(resOn.units) == 0 {
		return // a restore failed and was counted; its metrics stay unmeasured
	}
	rc.set("process.trace_overhead_pct", 100*(quiet(saveOn.stalls, time.Millisecond)/quiet(saveOff.stalls, time.Millisecond)-1))
	rc.set("bench.unit_ms_p50", median(saveOff.stalls, time.Millisecond))
	rc.set("bench.unit_ms_p99", quantile(saveOff.stalls, 0.99, time.Millisecond))
	rc.set("ckpt.stall_ms_p50", median(saveOff.stalls, time.Millisecond))
	rc.set("ckpt.resume_ms_p50", median(resOff.units, time.Millisecond))

	saveMS := median(saveOn.write, time.Millisecond)
	rc.set("ckpt.capture_ms", median(saveOn.capture, time.Millisecond))
	rc.set("ckpt.save_ms", saveMS)
	rc.set("ckpt.load_ms", median(resOn.load, time.Millisecond))
	rc.set("ckpt.restore_ms", median(resOn.restore, time.Millisecond))
	rc.set("ckpt.bytes", float64(saveOn.bytes))
	rc.set("ckpt.save_mb_per_s", float64(saveOn.bytes)/1e6/(saveMS/1e3))
	rc.set("ckpt.stall_share", sum(saveOn.stalls).Seconds()/saveOn.steps.wall.Seconds())
	phaseSplit(rc, "transformer", rc.share(0.1))
}

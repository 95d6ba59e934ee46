package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// minTTTRuns is how many runs to target a *_ttt pass makes at least; more
// follow while another of the last one's length fits the budget (three in
// 14 s on a quiet host). Two is the fewest that can disagree.
const minTTTRuns = 2

// timedWorkload decorates the models.Workload a Benchmark builds: the
// harness's calls into the model pass through it, each under a span. It
// exposes only the Workload methods, which is all core.Run needs from a
// serial model.
type timedWorkload struct {
	models.Workload
	rc    *runCtx
	tr    *tracer
	train []time.Duration
	eval  []time.Duration
	// The witness's readings, untraced: one before every TrainEpoch, one
	// after it, one after every Evaluate. The run is one goroutine on one
	// core, so the readings are taken on that goroutine alone.
	before, between, after []time.Duration
}

func (t *timedWorkload) TrainEpoch() float64 {
	t.before = append(t.before, t.rc.wit.read(1))
	h := t.tr.begin("models.Workload.TrainEpoch", t.Epoch())
	t0 := t.rc.clk.Now()
	loss := t.Workload.TrainEpoch()
	t.train = append(t.train, t.rc.clk.Now()-t0)
	t.tr.end(h)
	t.between = append(t.between, t.rc.wit.read(1))
	return loss
}

func (t *timedWorkload) Evaluate() float64 {
	h := t.tr.begin("models.Workload.Evaluate", t.Epoch())
	t0 := t.rc.clk.Now()
	q := t.Workload.Evaluate()
	t.eval = append(t.eval, t.rc.clk.Now()-t0)
	t.tr.end(h)
	t.after = append(t.after, t.rc.wit.read(1))
	return q
}

// tttRuns is what a series of runs to target produced.
type tttRuns struct {
	results []core.RunResult
	epochs  []time.Duration // TrainEpoch + Evaluate, one per epoch of every run
	train   []time.Duration
	eval    []time.Duration
	// Untraced: the same epochs in ms, and TrainEpoch's rate in training
	// samples per second, each with the witness's slowest reading around it.
	units, rates []sample
}

func runTTT(f32 bool) func(rc *runCtx) {
	return func(rc *runCtx) {
		// One kernel worker. With the default pool of two, a ResNet epoch is
		// no faster on this sandbox (its kernels are too small to repay the
		// fork) and its wall spreads by 30 % from run to run, past any bound
		// the contract allows; with one it spreads by 5 %.
		parallel.SetWorkers(1)
		cfg := core.TrainConfig{}
		model := "resnet"
		if f32 {
			cfg.Numerics = precision.Numerics{Compute: tensor.Float32}
			model = "resnet_f32"
		}
		bench, ok := setUp(rc, 1, func() (core.Benchmark, error) {
			// What a fresh process pays before its first run: the suite's
			// datasets, then the model.
			generateSuiteDatasets()
			b, err := core.Configure(core.V05, "image_classification", cfg)
			if err == nil {
				b.New(rc.seed)
			}
			return b, err
		}, func(core.Benchmark) {})
		if !ok {
			return
		}

		if !rc.traced {
			runs := tttSeries(rc, nil, bench, rc.budget)
			tttGates(rc, bench, runs)
			rc.report(runs.units, runs.rates)
			return
		}

		on := tttSeries(rc, rc.tr, bench, 0)
		off := on // the smoke test has no time for a second run
		if !rc.smoke {
			h := rc.tr.begin("core.Run (spans off)", 0)
			off = tttSeries(rc, nil, bench, 0)
			rc.tr.end(h)
		}
		tttGates(rc, bench, tttRuns{results: append(off.results, on.results...)})
		rc.set("process.trace_overhead_pct", 100*(quiet(on.epochs, time.Millisecond)/quiet(off.epochs, time.Millisecond)-1))
		rc.set("bench.unit_ms_p50", median(off.epochs, time.Millisecond))
		rc.set("bench.unit_ms_p99", quantile(off.epochs, 0.99, time.Millisecond))

		rc.set("core.time_to_train_s", off.results[0].TimeToTrain.Seconds())
		r := on.results[0]
		ttt := r.TimeToTrain.Seconds() // the shares below are of the run whose spans they are
		rc.set("core.epochs_to_target", float64(r.Epochs))
		rc.set("core.final_quality", r.FinalQuality)
		rc.set("core.train_epoch_s_p50", median(on.train, time.Second))
		rc.set("core.eval_s_p50", median(on.eval, time.Second))
		rc.set("core.eval_share", sum(on.eval).Seconds()/ttt)
		rc.set("core.harness_other_share", (ttt-sum(on.train).Seconds()-sum(on.eval).Seconds())/ttt)
		rc.set("mlog.events_per_run", float64(len(r.Log.Events)))
		mlogProbe(rc)
		tensorProbes(rc)
		phaseSplit(rc, model, rc.share(0.1))
	}
}

// tttSeries makes runs to target while another fits the budget: at least
// minTTTRuns with a budget, exactly one without.
func tttSeries(rc *runCtx, tr *tracer, bench core.Benchmark, budget time.Duration) tttRuns {
	var out tttRuns
	trainN := datasets.DefaultImageConfig().TrainN
	least := 1
	if budget > 0 {
		least = minTTTRuns
	}
	start := rc.clk.Now()
	var last time.Duration
	for i := 0; i < least || rc.clk.Now()-start+last <= budget; i++ {
		began := rc.clk.Now()
		var tw *timedWorkload
		b := bench
		b.New = func(seed uint64) models.Workload {
			tw = &timedWorkload{Workload: bench.New(seed), rc: rc, tr: tr}
			return tw
		}
		h := tr.begin("core.Run", i)
		cfg := core.RunConfig{Seed: rc.seed, Clock: rc.clk}
		if rc.smoke {
			cfg.MaxEpochs = 1
		}
		r := core.Run(b, cfg)
		tr.end(h)
		last = rc.clk.Now() - began
		out.results = append(out.results, r)
		out.train = append(out.train, tw.train...)
		out.eval = append(out.eval, tw.eval...)
		for e := range tw.eval {
			out.epochs = append(out.epochs, tw.train[e]+tw.eval[e])
			// Throughput while training: TrainEpoch alone, so that with the
			// unit (which includes Evaluate) the two costs can be told apart.
			trained := slower(tw.before[e], tw.between[e])
			out.units = append(out.units, sample{msOf(tw.train[e] + tw.eval[e]), slower(trained, tw.after[e])})
			out.rates = append(out.rates, sample{float64(trainN) / tw.train[e].Seconds(), trained})
		}
	}
	return out
}

// tttGates counts each run as an operation (it must reach the target) and
// requires the runs, which share a seed, to agree exactly.
func tttGates(rc *runCtx, bench core.Benchmark, runs tttRuns) {
	first := runs.results[0]
	for i, r := range runs.results {
		rc.op(r.Err == nil && (r.Converged || rc.smoke),
			"run %d did not reach quality %.3f: %s", i, bench.Target, r.String())
		rc.op(r.Epochs == first.Epochs && r.FinalQuality == first.FinalQuality,
			"run %d took %d epochs to quality %v, run 0 took %d to %v", i, r.Epochs, r.FinalQuality, first.Epochs, first.FinalQuality)
	}
}

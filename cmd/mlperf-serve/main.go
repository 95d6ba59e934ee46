// Command mlperf-serve is the serving half of the train-then-serve
// pipeline: it loads trained parameters (from a snapshot file, or by
// training the benchmark in-process first) and drives forward-only
// inference through the internal/serve harness under LoadGen-style
// traffic scenarios, reporting tail latency and an SLO verdict.
//
// Usage:
//
//	mlperf-serve -train -epochs 4 -save ncf.snap          # train, snapshot, serve
//	mlperf-serve -snapshot ncf.snap -scenario server -qps 500 -slo 50ms
//	mlperf-serve -snapshot ncf.snap -scenario all -queries 2000
//	mlperf-serve -snapshot ncf.snap -find-max-qps -qps-lo 50 -qps-hi 5000
//
// The server scenario's arrival schedule is a pure function of -seed and
// -qps, so a run replays identically; predictions are bit-identical at any
// -serve-workers count. Overload never hangs: a too-aggressive -qps yields
// typed admission rejections and an "SLO invalid" verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/mlog"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/serve"
)

func main() {
	var (
		snapPath = flag.String("snapshot", "", "load trained parameters from this snapshot file (produced by -save)")
		train    = flag.Bool("train", false, "train the recommendation benchmark in-process first (implied when no -snapshot is given)")
		save     = flag.String("save", "", "write the trained/loaded snapshot to this file")
		epochs   = flag.Int("epochs", 0, "training epoch cap for -train (0 = train to the quality target)")
		scenario = flag.String("scenario", "server", "traffic scenario: single-stream, multi-stream, offline, server, or all")
		queries  = flag.Int("queries", 1024, "queries to issue (multi-stream rounds up to whole bursts)")
		seed     = flag.Uint64("seed", 1, "seed for training and the Poisson arrival schedule")
		qps      = flag.Float64("qps", 200, "server scenario: target Poisson arrival rate")
		slo      = flag.Duration("slo", 50*time.Millisecond, "latency bound for the SLO verdict (0 = no gating)")
		pct      = flag.Float64("percentile", 0, "gated latency percentile in (0,1) (0 = scenario default: 0.90 single-stream, 0.99 otherwise)")
		maxBatch = flag.Int("max-batch", 8, "max batch size a worker forms (offline fills to it; server and multi-stream ship what is queued)")
		queueCap = flag.Int("queue-cap", 0, "admission queue bound (0 = 4x max-batch); a full queue rejects, never blocks")
		sWorkers = flag.Int("serve-workers", 2, "concurrent inference contexts")
		streams  = flag.Int("streams", 8, "multi-stream: queries per burst")
		interval = flag.Duration("interval", 20*time.Millisecond, "multi-stream: burst period (and default burst deadline)")
		poolNegs = flag.Int("pool-negatives", models.RecPoolNegatives, "sample pool: negatives per user alongside the held-out positive")
		workers  = flag.Int("workers", 0, "kernel worker-pool size (0 = GOMAXPROCS, 1 = serial)")
		logs     = flag.Bool("mllog", false, "stream MLLOG lines to stdout")
		findMax  = flag.Bool("find-max-qps", false, "binary-search the max sustainable QPS under -slo (server scenario)")
		qpsLo    = flag.Float64("qps-lo", 25, "find-max-qps: search floor")
		qpsHi    = flag.Float64("qps-hi", 10000, "find-max-qps: search ceiling")
		probes   = flag.Int("probes", 8, "find-max-qps: bisection probes (each one full serving run)")
		strict   = flag.Bool("strict", false, "exit nonzero when the SLO verdict is invalid")
	)
	flag.Parse()

	parallel.SetWorkers(*workers)

	var logger *mlog.Logger
	if *logs {
		logger = mlog.NewLogger(os.Stdout)
	}

	// --- Obtain trained parameters: snapshot file, or an in-process run.
	var snap *models.Snapshot
	switch {
	case *snapPath != "":
		s, err := models.LoadSnapshotFile(*snapPath)
		if err != nil {
			fatal(err)
		}
		if s.Benchmark != "recommendation" {
			fatal(fmt.Errorf("snapshot %s holds %q parameters; mlperf-serve serves the recommendation benchmark", *snapPath, s.Benchmark))
		}
		snap = s
		fmt.Printf("loaded snapshot %s: %s, %d params, %d values, digest %s\n",
			*snapPath, s.Benchmark, len(s.Params), s.NumValues(), s.Digest())
	default:
		if !*train {
			fmt.Println("no -snapshot given; training the recommendation benchmark first (as if -train)")
		}
		b, err := core.FindBenchmark(core.V05, "recommendation")
		if err != nil {
			fatal(err)
		}
		cfg := core.RunConfig{Seed: *seed, MaxEpochs: *epochs, CaptureParams: true}
		if *logs {
			cfg.LogWriter = os.Stdout
		}
		r := core.Run(b, cfg)
		fmt.Println(r.String())
		if r.Err != nil {
			fatal(r.Err)
		}
		if r.FinalParams == nil {
			fatal(fmt.Errorf("training run produced no parameter snapshot"))
		}
		snap = r.FinalParams
		fmt.Printf("trained snapshot: %d params, %d values, digest %s\n",
			len(snap.Params), snap.NumValues(), snap.Digest())
	}
	if *save != "" {
		if err := snap.SaveFile(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("saved snapshot to %s (digest %s)\n", *save, snap.Digest())
	}

	// --- Build the predictor over the benchmark's dataset. Dataset
	// generation is deterministic, so this is the same data the training
	// run saw (the §3.2.1 untimed reformatting stage).
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	pred, err := models.NewRecPredictor(ds, models.DefaultNCFHParams(), snap, *poolNegs, *seed)
	if err != nil {
		fatal(err)
	}
	if logger != nil {
		logger.Simple(0, mlog.KeySnapshotDigest, pred.SnapshotDigest())
	}
	backend := serve.Backend{
		Name:       "recommendation",
		Samples:    pred.Samples(),
		NewContext: func() serve.InferContext { return pred.NewContext() },
	}

	base := serve.Config{
		Queries:    *queries,
		Seed:       *seed,
		TargetQPS:  *qps,
		Streams:    *streams,
		Interval:   *interval,
		MaxBatch:   *maxBatch,
		QueueCap:   *queueCap,
		Workers:    *sWorkers,
		SLO:        *slo,
		Percentile: *pct,
		Log:        logger,
	}

	if *findMax {
		cfg := base
		best, reports, err := serve.FindMaxQPS(backend, cfg, *qpsLo, *qpsHi, *probes)
		if err != nil {
			fatal(err)
		}
		for _, rep := range reports {
			fmt.Println(rep.String())
		}
		if best <= 0 {
			fmt.Printf("max sustainable QPS under %s p%g SLO: none (floor %.1f QPS already invalid)\n",
				*slo, sloPct(*pct)*100, *qpsLo)
			if *strict {
				os.Exit(1)
			}
			return
		}
		fmt.Printf("max sustainable QPS under %s p%g SLO: %.1f\n", *slo, sloPct(*pct)*100, best)
		return
	}

	var scenarios []serve.Scenario
	if *scenario == "all" {
		scenarios = serve.Scenarios()
	} else {
		sc, err := serve.ParseScenario(*scenario)
		if err != nil {
			fatal(err)
		}
		scenarios = []serve.Scenario{sc}
	}

	invalid := false
	for _, sc := range scenarios {
		cfg := base
		cfg.Scenario = sc
		rep, err := serve.Run(backend, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.String())
		if rep.SLO != nil && !rep.SLO.Valid {
			invalid = true
		}
	}
	if invalid && *strict {
		os.Exit(1)
	}
}

// sloPct mirrors Config.withDefaults' percentile default for messages.
func sloPct(p float64) float64 {
	if p == 0 {
		return 0.99
	}
	return p
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

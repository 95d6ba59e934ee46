package main

import (
	"runtime"
	"time"

	"repro/internal/datasets"
)

// generateSuiteDatasets regenerates the four datasets core.Suite builds on
// first use and then caches for the life of the process: the part of a
// fresh process's set-up that a second set-up in this one would skip.
func generateSuiteDatasets() {
	datasets.GenerateImages(datasets.DefaultImageConfig())
	datasets.GenerateDetection(datasets.DefaultDetConfig())
	datasets.GenerateMT(datasets.DefaultMTConfig())
	datasets.GenerateRec(datasets.DefaultRecConfig())
}

// The untraced pass sets a workload up at least setupReps times, and goes
// on (to at most maxSetupReps) until the set-ups have taken setupTime in
// all; then, once the timed region is over, it does the same again, because
// a second of set-ups falls inside one spell of the host or outside it as a
// whole, and a run's length later the host has often changed its mind.
// setup_s is taken over the set-ups of both rounds that the witness saw
// undisturbed. A set-up of 25 ms is at the mercy of one scheduling hiccup, so
// the short ones are repeated more. The traced pass sets up once.
const (
	setupReps    = 8
	maxSetupReps = 25
	setupTime    = time.Second
)

// setUp times build repeatedly, keeps the first product and releases the
// others, and keeps each wall with the witness's readings around it
// for setup_s; cores is how many cores build keeps busy. build must do
// everything a fresh process would: generate the dataset, build the model
// or engine, dial, warm up.
func setUp[T any](rc *runCtx, cores int, build func() (T, error), release func(T)) (T, bool) {
	var (
		kept   T
		failed bool
	)
	round := func(keep bool) {
		least, most := setupReps, maxSetupReps
		if rc.traced || rc.smoke {
			least, most = 1, 1
		}
		var walls time.Duration
		after := rc.wit.read(cores)
		for i := 0; i < least || (i < most && walls < setupTime); i++ {
			before := after
			h := rc.tr.begin("setup", i)
			start := rc.clk.Now()
			v, err := build()
			wall := rc.clk.Now() - start
			rc.tr.end(h)
			if err != nil {
				rc.fail(err)
				failed = true
				return
			}
			if keep && i == 0 {
				kept = v
			} else {
				release(v)
			}
			// Set-up left megabytes of garbage (datasets, closed engines).
			// Collect it now, untimed, so that its GC cycle lands neither in
			// the witness's reading nor in the next set-up or the timed region.
			runtime.GC()
			after = rc.wit.read(cores)
			walls += wall
			rc.setups = append(rc.setups, sample{wall.Seconds(), slower(before, after)})
		}
	}
	round(true)
	if !rc.traced && !rc.smoke {
		rc.secondRound = func() { round(false) }
	}
	return kept, !failed
}

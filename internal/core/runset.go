package core

import (
	"bytes"
	"fmt"
	"path/filepath"

	"repro/internal/clock"
	"repro/internal/parallel"
)

// RunSetConfig controls the execution of a benchmark's §3.2.2 run set, the
// only code that runs one. Every run is fully isolated: it gets its own
// seed, its own Clock from NewClock, its own checkpoint directory, and its
// own mlog.Logger, so training outcomes (epochs, quality curves,
// convergence) are independent of goroutine scheduling and bit-identical
// to executing the runs serially. Timing is bit-identical too when
// NewClock supplies deterministic clocks (e.g. clock.Tick); with the
// default wall clocks, concurrent runs contend for cores, so measured
// times-to-train differ from a serial execution's.
type RunSetConfig struct {
	// Run is every run's template. Run i trains from seed Run.Seed + i and,
	// when Checkpoint.Dir is set, checkpoints to (and resumes from) its
	// run<i> subdirectory. Run.LogWriter receives every run's MLLOG
	// stream: at one worker the lines stream as they are produced;
	// concurrent runs buffer theirs and flush them in run order after the
	// set completes. Both write the same bytes.
	Run RunConfig
	// Runs is the number of timed runs; 0 selects the benchmark's
	// RequiredRuns (5 for vision, 10 otherwise).
	Runs int
	// Workers bounds the number of concurrently executing runs: 1 runs
	// them serially on the calling goroutine, 0 selects GOMAXPROCS.
	// Worker goroutines share the process-wide kernel pool, so runs=N
	// with deep tensor parallelism oversubscribes gracefully rather than
	// deadlocking (both levels are fork-join).
	Workers int
	// NewClock, when set, builds run i's clock in place of Run.Clock.
	// Tests pass clock.NewTick-backed factories for deterministic timing.
	NewClock func(run int) clock.Clock
}

// RunSet executes a benchmark's run set, concurrently when cfg.Workers
// permits, and returns the runs in run-index order.
func RunSet(b Benchmark, cfg RunSetConfig) ResultSet {
	runs := cfg.Runs
	if runs <= 0 {
		runs = b.RequiredRuns
	}
	pool := parallel.NewPool(cfg.Workers)
	var bufs []bytes.Buffer
	if cfg.Run.LogWriter != nil && pool.Workers() > 1 {
		bufs = make([]bytes.Buffer, runs)
	}
	rs := ResultSet{Benchmark: b.ID, Runs: make([]RunResult, runs)}
	pool.For(runs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rc := cfg.Run
			rc.Seed += uint64(i)
			if cfg.NewClock != nil {
				rc.Clock = cfg.NewClock(i)
			}
			if rc.Checkpoint.Dir != "" {
				rc.Checkpoint.Dir = filepath.Join(rc.Checkpoint.Dir, fmt.Sprintf("run%d", i))
			}
			if bufs != nil {
				rc.LogWriter = &bufs[i]
			}
			rs.Runs[i] = Run(b, rc)
		}
	})
	for i := range bufs {
		cfg.Run.LogWriter.Write(bufs[i].Bytes())
	}
	return rs
}

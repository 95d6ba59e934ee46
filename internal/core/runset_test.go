package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/mlog"
	"repro/internal/models"
)

// seededWorkload converges after a seed-dependent number of epochs, so a
// run set over it produces distinct times per run — enough structure for
// the olympic mean to be a real aggregation, while staying deterministic.
type seededWorkload struct {
	epoch int
	rate  float64
}

func (f *seededWorkload) TrainEpoch() float64 {
	f.epoch++
	return 1.0 / float64(f.epoch)
}
func (f *seededWorkload) Evaluate() float64 { return f.rate * float64(f.epoch) }
func (f *seededWorkload) Epoch() int        { return f.epoch }

func seededBenchmark() Benchmark {
	return Benchmark{
		ID: "seeded", Target: 1.0, RequiredRuns: 10, MaxEpochs: 64,
		New: func(seed uint64) models.Workload {
			// Rates in [0.05, 0.20]: converge in 5..20 epochs.
			return &seededWorkload{rate: 0.05 + 0.01*float64(seed%16)}
		},
	}
}

// runSetAt executes the §3.2.2 run set at the given worker count with
// deterministic per-run clocks and a captured log stream.
func runSetAt(b Benchmark, workers int) (ResultSet, string) {
	var log bytes.Buffer
	rs := RunSet(b, RunSetConfig{
		Run:      RunConfig{Seed: 1, LogWriter: &log},
		Workers:  workers,
		NewClock: func(run int) clock.Clock { return clock.NewTick(time.Millisecond) },
	})
	return rs, log.String()
}

func TestRunSetConcurrentMatchesSerial(t *testing.T) {
	b := seededBenchmark()
	serial, serialLog := runSetAt(b, 1)
	if len(serial.Runs) != 10 {
		t.Fatalf("run set size %d, want RequiredRuns=10", len(serial.Runs))
	}
	for _, workers := range []int{2, 4, 8} {
		conc, concLog := runSetAt(b, workers)
		if len(conc.Runs) != len(serial.Runs) {
			t.Fatalf("workers=%d: %d runs vs %d", workers, len(conc.Runs), len(serial.Runs))
		}
		for i := range conc.Runs {
			cr, sr := conc.Runs[i], serial.Runs[i]
			if cr.Seed != sr.Seed || cr.Epochs != sr.Epochs || cr.Converged != sr.Converged ||
				cr.FinalQuality != sr.FinalQuality || cr.TimeToTrain != sr.TimeToTrain {
				t.Fatalf("workers=%d run %d diverged: %+v vs %+v", workers, i, cr, sr)
			}
			if len(cr.QualityCurve) != len(sr.QualityCurve) {
				t.Fatalf("workers=%d run %d curve length", workers, i)
			}
			for j := range cr.QualityCurve {
				if cr.QualityCurve[j] != sr.QualityCurve[j] {
					t.Fatalf("workers=%d run %d eval %d: %v vs %v",
						workers, i, j, cr.QualityCurve[j], sr.QualityCurve[j])
				}
			}
		}
		// The official aggregate must be bit-identical too.
		ss, err1 := serial.Score(b.RequiredRuns)
		cs, err2 := conc.Score(b.RequiredRuns)
		if err1 != nil || err2 != nil {
			t.Fatalf("workers=%d: score errors %v / %v", workers, err1, err2)
		}
		if ss != cs {
			t.Fatalf("workers=%d: olympic mean %v vs serial %v", workers, cs, ss)
		}
		// And the combined MLLOG stream must be byte-identical: concurrent
		// runs buffer their lines and flush in run order.
		if concLog != serialLog {
			t.Fatalf("workers=%d: log stream differs from serial execution", workers)
		}
	}
}

func TestRunSetDistinctSeedsProduceDistinctRuns(t *testing.T) {
	rs, _ := runSetAt(seededBenchmark(), 4)
	distinct := map[time.Duration]bool{}
	for _, r := range rs.Runs {
		if !r.Converged {
			t.Fatalf("seeded workload must converge: %+v", r)
		}
		distinct[r.TimeToTrain] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("per-run seeds should vary times-to-train, got %d distinct", len(distinct))
	}
}

func TestRunSetDefaultsToRequiredRuns(t *testing.T) {
	b := seededBenchmark()
	b.RequiredRuns = 5
	rs := RunSet(b, RunSetConfig{Run: RunConfig{Seed: 1}, Workers: 2,
		NewClock: func(int) clock.Clock { return clock.NewTick(time.Millisecond) }})
	if len(rs.Runs) != 5 {
		t.Fatalf("defaulted run count %d, want 5", len(rs.Runs))
	}
	if _, err := rs.Score(5); err != nil {
		t.Fatalf("all runs converge, set must be complete: %v", err)
	}
}

func TestRunSetExplicitRunsOverridesRequired(t *testing.T) {
	rs := RunSet(seededBenchmark(), RunSetConfig{Run: RunConfig{Seed: 1}, Runs: 3, Workers: 2,
		NewClock: func(int) clock.Clock { return clock.NewTick(time.Millisecond) }})
	if len(rs.Runs) != 3 {
		t.Fatalf("run count %d, want 3", len(rs.Runs))
	}
}

// TestRunSetRealWorkloadConcurrent drives the executor through a real
// training workload (NCF at a tiny epoch budget) and checks concurrent
// quality trajectories match the serial ones exactly — the end-to-end
// isolation guarantee (per-run RNG, clock, logger).
func TestRunSetRealWorkloadConcurrent(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunSetConfig{Run: RunConfig{Seed: 7, MaxEpochs: 2}, Runs: 4,
		NewClock: func(int) clock.Clock { return clock.NewTick(time.Millisecond) }}
	cfg.Workers = 1
	serial := RunSet(b, cfg)
	cfg.Workers = 4
	conc := RunSet(b, cfg)
	for i := range serial.Runs {
		sr, cr := serial.Runs[i], conc.Runs[i]
		if sr.FinalQuality != cr.FinalQuality || sr.Epochs != cr.Epochs {
			t.Fatalf("run %d: concurrent %v/%d vs serial %v/%d",
				i, cr.FinalQuality, cr.Epochs, sr.FinalQuality, sr.Epochs)
		}
	}
}

// At one worker a set streams each run's MLLOG as it is produced: a run's
// header lines are in the writer before it builds its model, and run 0's
// whole log before run 1 does.
func TestRunSetStreamsAtOneWorker(t *testing.T) {
	var log bytes.Buffer
	var written []int
	b := seededBenchmark()
	build := b.New
	b.New = func(seed uint64) models.Workload {
		written = append(written, log.Len())
		return build(seed)
	}
	RunSet(b, RunSetConfig{Run: RunConfig{Seed: 1, LogWriter: &log}, Runs: 2, Workers: 1})
	if written[0] == 0 || written[1] <= 2*written[0] {
		t.Fatalf("bytes written when each run built its model: %v; want a stream", written)
	}
}

// A run set checkpoints each run into its own run<i> directory and resumes
// each from there: a 2-run NCF set stopped after epoch 1 and resumed to
// epoch 3, at one worker and at two, matches an uninterrupted 3-epoch set
// run by run.
func TestRunSetCheckpointResume(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	tick := func(int) clock.Clock { return clock.NewTick(time.Millisecond) }
	full := RunSet(b, RunSetConfig{Run: RunConfig{Seed: 5, MaxEpochs: 3, CaptureParams: true}, Runs: 2, Workers: 1, NewClock: tick})
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		run := RunConfig{Seed: 5, MaxEpochs: 1, CaptureParams: true, Checkpoint: CheckpointConfig{Dir: dir}}
		first := RunSet(b, RunSetConfig{Run: run, Runs: 2, Workers: workers, NewClock: tick})
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{"run0", "run1"}) {
			t.Fatalf("workers=%d: checkpoint directory holds %v, want run0 and run1", workers, names)
		}
		for i := range names {
			if st, _, err := ckpt.Latest(filepath.Join(dir, names[i]), 0); err != nil || st == nil || st.Epoch != 1 {
				t.Fatalf("workers=%d: %s holds no epoch-1 checkpoint (%v)", workers, names[i], err)
			}
		}

		run.MaxEpochs, run.Checkpoint.Resume = 3, true
		resumed := RunSet(b, RunSetConfig{Run: run, Runs: 2, Workers: workers, NewClock: tick})
		for i, r := range resumed.Runs {
			u := full.Runs[i]
			if r.Err != nil || mlog.Find(r.Log.Events, mlog.KeyResumeFromStep) == nil {
				t.Fatalf("workers=%d run %d did not resume: %v", workers, i, r.Err)
			}
			curve := append(slices.Clone(first.Runs[i].QualityCurve), r.QualityCurve...)
			if r.Epochs != u.Epochs || !slices.EqualFunc(curve, u.QualityCurve, sameBits) ||
				r.FinalParams.Digest() != u.FinalParams.Digest() {
				t.Fatalf("workers=%d run %d: resumed %d epochs, curve %v, digest %s; uninterrupted %d, %v, %s",
					workers, i, r.Epochs, curve, r.FinalParams.Digest(), u.Epochs, u.QualityCurve, u.FinalParams.Digest())
			}
		}
	}
}

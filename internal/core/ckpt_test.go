package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/leakcheck"
	"repro/internal/mlog"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
)

// finalDigest runs a benchmark to completion under cfg and returns the
// final-parameter digest plus the run's log.
func finalDigest(t *testing.T, b Benchmark, cfg RunConfig) (string, *mlog.Logger) {
	t.Helper()
	cfg.CaptureParams = true
	res := Run(b, cfg)
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.FinalParams == nil {
		t.Fatal("run captured no parameters")
	}
	return res.FinalParams.Digest(), res.Log
}

// resumeDigest resumes a benchmark under cfg and returns the final digest
// plus the resumed run's log.
func resumeDigest(t *testing.T, b Benchmark, cfg RunConfig) (string, *mlog.Logger) {
	t.Helper()
	cfg.CaptureParams = true
	cfg.Checkpoint.Resume = true
	res := Run(b, cfg)
	if res.Err != nil {
		t.Fatalf("resumed run failed: %v", res.Err)
	}
	if res.FinalParams == nil {
		t.Fatal("resumed run captured no parameters")
	}
	return res.FinalParams.Digest(), res.Log
}

// benchmarksForCrashSweep returns the serial and DP-2 NCF benchmarks the
// boundary sweep exercises.
func benchmarksForCrashSweep(t *testing.T) map[string]Benchmark {
	t.Helper()
	serial, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	dp2, err := Configure(V05, "recommendation", TrainConfig{Parallel: Parallel{DP: 2, Microbatches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Benchmark{"serial": serial, "dp2": dp2}
}

// TestCrashAtEveryCheckpointBoundary is the satellite sweep: for a small
// NCF run, simulate a crash immediately after EVERY checkpoint boundary
// (the runner checkpoints at epoch granularity) and resume; each resumed
// run's final parameter digest must equal the uninterrupted reference's.
// Runs for both the serial run (the K = S = M = 1 engine) and DP-2.
func TestCrashAtEveryCheckpointBoundary(t *testing.T) {
	const seed, epochs = 42, 4
	for name, b := range benchmarksForCrashSweep(t) {
		t.Run(name, func(t *testing.T) {
			refDigest, refLog := finalDigest(t, b, RunConfig{
				Seed: seed, MaxEpochs: epochs,
				Checkpoint: CheckpointConfig{Dir: t.TempDir()},
			})
			// The reference run emitted checkpoint events at every boundary.
			if evs := mlog.FindAll(refLog.Events, mlog.KeyCheckpointStep); len(evs) != epochs {
				t.Fatalf("reference logged %d %s events, want %d", len(evs), mlog.KeyCheckpointStep, epochs)
			}
			if evs := mlog.FindAll(refLog.Events, mlog.KeyCheckpointDigest); len(evs) != epochs {
				t.Fatalf("reference logged %d %s events, want %d", len(evs), mlog.KeyCheckpointDigest, epochs)
			}

			for crashAfter := 1; crashAfter < epochs; crashAfter++ {
				dir := t.TempDir()
				// The "crashed" run: trains exactly crashAfter epochs (each a
				// checkpoint boundary), then dies before finishing.
				crashed := Run(b, RunConfig{
					Seed: seed, MaxEpochs: crashAfter,
					Checkpoint: CheckpointConfig{Dir: dir},
				})
				if crashed.Err != nil {
					t.Fatalf("crash-prefix run (epochs=%d) failed: %v", crashAfter, crashed.Err)
				}
				got, resLog := resumeDigest(t, b, RunConfig{
					Seed: seed, MaxEpochs: epochs,
					Checkpoint: CheckpointConfig{Dir: dir},
				})
				if got != refDigest {
					t.Errorf("crash after epoch %d: resumed digest %s != reference %s", crashAfter, got, refDigest)
				}
				ev := mlog.Find(resLog.Events, mlog.KeyResumeFromStep)
				if ev == nil {
					t.Fatalf("crash after epoch %d: resumed run logged no %s", crashAfter, mlog.KeyResumeFromStep)
				}
				if step, ok := ev.Value.(int); !ok || step <= 0 {
					t.Errorf("crash after epoch %d: %s = %v, want positive step", crashAfter, mlog.KeyResumeFromStep, ev.Value)
				}
			}
		})
	}
}

// TestResumeWithoutCheckpointRunsFresh checks Resume on an empty directory
// degrades to a plain run (the supervisor restarts crashed runs with
// Resume unconditionally).
func TestResumeWithoutCheckpointRunsFresh(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	const seed, epochs = 7, 2
	refDigest, _ := finalDigest(t, b, RunConfig{
		Seed: seed, MaxEpochs: epochs,
		Checkpoint: CheckpointConfig{Dir: t.TempDir()},
	})
	got, resLog := resumeDigest(t, b, RunConfig{
		Seed: seed, MaxEpochs: epochs,
		Checkpoint: CheckpointConfig{Dir: t.TempDir()},
	})
	if got != refDigest {
		t.Errorf("fresh Resume digest %s != Run digest %s", got, refDigest)
	}
	if ev := mlog.Find(resLog.Events, mlog.KeyResumeFromStep); ev != nil {
		t.Error("fresh Resume logged resume_from_step")
	}
}

// TestResumeAfterConvergenceStopsAtTarget: a converged run restarted with
// Resume on its own directory (as after a crash during the converging
// evaluation) must not train past its target. It redoes at most the epoch
// that converged, so it reports the same epochs, quality bits and final
// parameters as the run it repeats.
func TestResumeAfterConvergenceStopsAtTarget(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Seed: 1, CaptureParams: true, Checkpoint: CheckpointConfig{Dir: t.TempDir()}}
	ref := Run(b, cfg)
	if ref.Err != nil || !ref.Converged || ref.Epochs < 2 {
		t.Fatalf("reference run %v: want a run that converges after its first epoch", ref)
	}
	cfg.Checkpoint.Resume = true
	again := Run(b, cfg)
	if again.Err != nil || mlog.Find(again.Log.Events, mlog.KeyResumeFromStep) == nil {
		t.Fatalf("resumed run %v logged no %s", again, mlog.KeyResumeFromStep)
	}
	if again.Epochs != ref.Epochs || math.Float64bits(again.FinalQuality) != math.Float64bits(ref.FinalQuality) ||
		again.FinalParams.Digest() != ref.FinalParams.Digest() {
		t.Fatalf("resumed run %v (digest %s), converged run %v (digest %s)",
			again, again.FinalParams.Digest(), ref, ref.FinalParams.Digest())
	}
}

// TestResumeAtEpochCapReportsItsEpochs: a run that ended at its epoch cap
// without converging, resumed at that cap, trains nothing more and reports
// the epochs its checkpoint holds.
func TestResumeAtEpochCapReportsItsEpochs(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	cfg := RunConfig{Seed: 1, MaxEpochs: 2, Checkpoint: CheckpointConfig{Dir: t.TempDir()}}
	ref := Run(b, cfg)
	if ref.Err != nil || ref.Converged || ref.Epochs != 2 {
		t.Fatalf("reference run %v: want a DNF at its 2-epoch cap", ref)
	}
	cfg.Checkpoint.Resume = true
	if again := Run(b, cfg); again.Err != nil || again.Converged || again.Epochs != 2 {
		t.Fatalf("resumed at the cap: %v, want a DNF after 2 epochs", again)
	}
}

// A checkpoint of the serial NCF loop the engine replaced (written by that
// loop after one epoch at seed 1, on the parent of the change that deleted
// it) carries the loop's negative-sampling stream. The engine does not own
// that stream and would resume on another trajectory, so Resume refuses the
// state and names the stream.
func TestResumeRefusesSerialLoopCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/parent-serial-ncf.mlpckpt")
	if err != nil {
		t.Fatal(err)
	}
	// The file name the loop's writer gave it: step 18, rank 0.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000000018-r000.mlpckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	res := Run(b, RunConfig{Seed: 1, MaxEpochs: 2, Checkpoint: CheckpointConfig{Dir: dir, Resume: true}})
	if res.Err == nil || !strings.Contains(res.Err.Error(), `"ncf_negative_sampling"`) {
		t.Fatalf("resumed a serial-loop checkpoint: run error %v, want a refusal naming its stream", res.Err)
	}
	if res.Epochs != 0 {
		t.Fatalf("the refused run trained %d epochs", res.Epochs)
	}
}

// A run closes its workload on every return after building it, the two
// that end it before the first epoch included: a checkpoint directory the
// writer cannot create (it lies under a regular file), and a checkpoint the
// engine refuses to restore (a transformer's, offered to NCF). An engine
// left open keeps its DP-2 cell goroutines parked and its buffers out of
// the arena. A checkpoint directory that vanishes after the first epoch's
// checkpoint has landed fails the run at its 2-epoch cap: the second
// epoch's Write returns, its persist fails behind it, and only the Flush
// before run_stop can report that.
func TestCheckpointFailuresCloseTheWorkload(t *testing.T) {
	dp2, err := Configure(V05, "recommendation", TrainConfig{Parallel: Parallel{DP: 2, Microbatches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	other := t.TempDir()
	eng, _, err := NewEngine(V05, "translation_transformer", engineConfig(Parallel{}, precision.Numerics{}))
	if err != nil {
		t.Fatal(err)
	}
	eng.StepNext()
	w, err := ckpt.NewWriter(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Write(eng.CaptureTrainState(), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	vanishing := dp2
	vanishing.Target = 2 // out of reach: no epoch converges before its checkpoint
	vanishDir := filepath.Join(t.TempDir(), "ckpt")
	vanishing.New = func(seed uint64) models.Workload {
		return &removeDirAfterEpoch{Workload: dp2.New(seed).(*pipeline.Workload), t: t, dir: vanishDir}
	}

	for _, tc := range []struct {
		name   string
		run    func() RunResult
		want   string // prefix of the run error
		epochs int
	}{
		{"checkpoint writer error", func() RunResult {
			return Run(dp2, RunConfig{Seed: 1, MaxEpochs: 1, Checkpoint: CheckpointConfig{Dir: filepath.Join(file, "ckpt")}})
		}, "ckpt: ", 0},
		{"restore refused", func() RunResult {
			return Run(dp2, RunConfig{Seed: 1, MaxEpochs: 1, Checkpoint: CheckpointConfig{Dir: other, Resume: true}})
		}, "pipeline: ", 0},
		{"checkpoint directory removed", func() RunResult {
			return Run(vanishing, RunConfig{Seed: 1, MaxEpochs: 2, Checkpoint: CheckpointConfig{Dir: vanishDir}})
		}, "ckpt: write ", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			res := tc.run()
			if res.Err == nil || !strings.HasPrefix(res.Err.Error(), tc.want) || res.Epochs != tc.epochs {
				t.Fatalf("run error %v after %d epochs: want a %q error after %d", res.Err, res.Epochs, tc.want, tc.epochs)
			}
		})
	}
}

// removeDirAfterEpoch removes dir as its second epoch starts, once the
// first epoch's checkpoint is on disk (Latest waits for this process's
// persists into dir).
type removeDirAfterEpoch struct {
	*pipeline.Workload
	t      *testing.T
	dir    string
	epochs int
}

func (w *removeDirAfterEpoch) TrainEpoch() float64 {
	if w.epochs++; w.epochs == 2 {
		if st, _, err := ckpt.Latest(w.dir, 0); err != nil || st == nil {
			w.t.Errorf("the first epoch's checkpoint is not on disk (%v)", err)
		}
		os.RemoveAll(w.dir)
	}
	return w.Workload.TrainEpoch()
}

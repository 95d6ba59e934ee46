package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/leakcheck"
	"repro/internal/mlog"
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
	res, err := Resume(b, cfg)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
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
	st, err := ckpt.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w, err := ckpt.NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Write(st, 0); err != nil {
		t.Fatal(err)
	}
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Resume(b, RunConfig{Seed: 1, MaxEpochs: 2, Checkpoint: CheckpointConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
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
// the arena.
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
	eng.Close()

	for _, tc := range []struct {
		name string
		run  func() RunResult
		want string // prefix of the run error
	}{
		{"checkpoint writer error", func() RunResult {
			return Run(dp2, RunConfig{Seed: 1, MaxEpochs: 1, Checkpoint: CheckpointConfig{Dir: filepath.Join(file, "ckpt")}})
		}, "ckpt: "},
		{"restore refused", func() RunResult {
			res, err := Resume(dp2, RunConfig{Seed: 1, MaxEpochs: 1, Checkpoint: CheckpointConfig{Dir: other}})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}, "pipeline: "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			res := tc.run()
			if res.Err == nil || !strings.HasPrefix(res.Err.Error(), tc.want) || res.Epochs != 0 {
				t.Fatalf("run error %v after %d epochs: want a %q error before the first epoch", res.Err, res.Epochs, tc.want)
			}
		})
	}
}

package grid

import (
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/mlog"
	"repro/internal/transport"
)

func TestSuperviseRejectsUncheckpointedSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Benchmark: "recommendation", DP: 2, Steps: 4},
		{Benchmark: "recommendation", DP: 2, Steps: 4, CkptDir: t.TempDir()},
	} {
		if _, err := Supervise(spec, SuperviseOptions{}); err == nil {
			t.Errorf("Supervise(%+v) accepted a spec that cannot recover", spec)
		}
	}
}

// TestSupervisedChaosRunBitIdentical is the end-to-end fault-tolerance
// acceptance: a 2-process DP grid over loopback TCP loses one worker to a
// seeded chaos crash mid-run, the supervisor tears the generation down and
// respawns it from the newest complete checkpoint set, and the completed
// run's per-rank trajectory digests equal the in-process reference that
// never failed — plus the full recovery MLLOG key set.
func TestSupervisedChaosRunBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"dp2", Spec{
			Benchmark: "recommendation",
			DP:        2, Microshards: 2,
			Steps: 6, Seed: 11,
		}},
		{"dp2pp2", Spec{
			Benchmark: "image_classification",
			DP:        2, PP: 2, Microbatches: 4,
			Steps: 4, Seed: 5,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The oracle: the same training run, in-process, never killed —
			// chaos and checkpoint knobs don't exist for Reference.
			ref, err := Reference(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			spec := tc.spec
			spec.CkptDir, spec.CkptEvery = t.TempDir(), 1
			spec.ChaosSeed, spec.ChaosCrashes = 7, 1

			log := mlog.NewLogger(io.Discard)
			res, err := Supervise(spec, SuperviseOptions{
				Start: superviseStartOptions(exe),
				Log:   log,
			})
			if err != nil {
				t.Fatalf("Supervise: %v", err)
			}
			if res.Restarts != 1 {
				t.Errorf("supervised run restarted %d times, want exactly 1 (ChaosCrashes=1)", res.Restarts)
			}
			for r, wr := range res.Results {
				if wr == nil || wr.Err != "" {
					t.Fatalf("rank %d result %+v", r, wr)
				}
				if wr.Steps != spec.Steps {
					t.Errorf("rank %d finished at %d steps, want %d", r, wr.Steps, spec.Steps)
				}
				if wr.Digest != ref.Digests[r] {
					t.Errorf("rank %d: supervised digest %s != never-killed reference %s", r, wr.Digest, ref.Digests[r])
				}
			}

			// The recovery MLLOG stream names every phase of the failure story.
			for _, key := range []string{
				mlog.KeyResumeFromStep,
				mlog.KeyWorkerRestarts,
				mlog.KeyRecoveryWallMS,
				mlog.KeyCheckpointStep,
				mlog.KeyCheckpointDigest,
			} {
				if mlog.Find(log.Events, key) == nil {
					t.Errorf("supervised run logged no %s", key)
				}
			}
			if ev := mlog.Find(log.Events, mlog.KeyWorkerRestarts); ev != nil {
				if n, ok := ev.Value.(int); !ok || n != 1 {
					t.Errorf("%s = %v, want 1", mlog.KeyWorkerRestarts, ev.Value)
				}
			}
			if ev := mlog.Find(log.Events, mlog.KeyCheckpointStep); ev != nil {
				if step, ok := ev.Value.(int); !ok || step != spec.Steps {
					t.Errorf("%s = %v, want final step %d", mlog.KeyCheckpointStep, ev.Value, spec.Steps)
				}
			}
			if ev := mlog.Find(log.Events, mlog.KeyCheckpointDigest); ev != nil {
				if d, ok := ev.Value.(string); !ok || len(d) != 16 {
					t.Errorf("%s = %v, want a 16-hex content digest", mlog.KeyCheckpointDigest, ev.Value)
				}
			}
			// The crash lands in the second half of the step budget, but the
			// teardown may kill survivors before they persist the crash-step
			// checkpoint — the newest COMPLETE set can be any earlier step.
			// With CkptEvery=1 at least step 1 is sealed by every rank before
			// anyone enters step 2, so the resume point is in [1, Steps).
			if ev := mlog.Find(log.Events, mlog.KeyResumeFromStep); ev != nil {
				if step, ok := ev.Value.(int); !ok || step < 1 || step >= spec.Steps {
					t.Errorf("%s = %v, want a step in [1, %d)", mlog.KeyResumeFromStep, ev.Value, spec.Steps)
				}
			}
		})
	}
}

// superviseStartOptions builds the per-generation StartOptions the
// supervised multi-process tests use: re-exec this binary with a fast
// failure-detection window so an injected crash surfaces in milliseconds,
// not the production 30s heartbeat budget.
func superviseStartOptions(exe string) StartOptions {
	return StartOptions{
		Command: []string{exe},
		Stderr:  os.Stderr,
		Coordinator: transport.CoordinatorConfig{
			HeartbeatInterval: 50 * time.Millisecond,
			HeartbeatWindow:   time.Second,
		},
	}
}

// TestMultiProcResumeBitIdentical is the grid resume acceptance without a
// supervisor: run half the steps with checkpoints, then launch a SECOND
// grid (new rendezvous generation) that resumes from the directory and
// finishes — its digests must equal the uninterrupted reference's.
func TestMultiProcResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	full := Spec{
		Benchmark: "recommendation",
		DP:        2, Microshards: 2,
		Steps: 4, Seed: 3,
		CkptDir: dir, CkptEvery: 1,
	}
	ref, err := Reference(full)
	if err != nil {
		t.Fatal(err)
	}

	// First grid: only half the budget, checkpointing every step.
	half := full
	half.Steps = 2
	c, err := Start(half, superviseStartOptions(exe))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatalf("prefix grid: %v", err)
	}

	// Second grid: full budget, resuming where the first stopped.
	resumed := full
	resumed.Resume = true
	resumed.Gen = 1
	c, err = Start(resumed, superviseStartOptions(exe))
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Wait()
	if err != nil {
		t.Fatalf("resumed grid: %v", err)
	}
	for r, wr := range results {
		if wr == nil || wr.Err != "" {
			t.Fatalf("rank %d result %+v", r, wr)
		}
		if wr.Steps != full.Steps {
			t.Errorf("rank %d finished at %d steps, want %d", r, wr.Steps, full.Steps)
		}
		if wr.Digest != ref.Digests[r] {
			t.Errorf("rank %d: resumed digest %s != reference %s", r, wr.Digest, ref.Digests[r])
		}
	}
}

// TestSuperviseResumeFirstGeneration: a supervised run launched with Resume
// on a directory that holds a complete checkpoint set resumes its first
// generation from it, instead of retraining from step 0 over those
// checkpoints, and finishes on the uninterrupted reference's digests.
func TestSuperviseResumeFirstGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	full := Spec{
		Benchmark: "recommendation",
		DP:        2, Microshards: 2,
		Steps: 4, Seed: 3,
		CkptDir: t.TempDir(), CkptEvery: 1,
	}
	ref, err := Reference(full)
	if err != nil {
		t.Fatal(err)
	}
	half := full
	half.Steps = 2
	c, err := Start(half, superviseStartOptions(exe))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatalf("prefix grid: %v", err)
	}

	spec := full
	spec.Resume = true
	log := mlog.NewLogger(io.Discard)
	res, err := Supervise(spec, SuperviseOptions{Start: superviseStartOptions(exe), Log: log})
	if err != nil {
		t.Fatalf("Supervise: %v", err)
	}
	if res.Restarts != 0 {
		t.Fatalf("supervised run restarted %d times, want 0", res.Restarts)
	}
	ev := mlog.Find(log.Events, mlog.KeyResumeFromStep)
	if ev == nil {
		t.Fatalf("generation 0 logged no %s", mlog.KeyResumeFromStep)
	}
	if step, ok := ev.Value.(int); !ok || step != half.Steps {
		t.Errorf("%s = %v, want %d", mlog.KeyResumeFromStep, ev.Value, half.Steps)
	}
	for r, wr := range res.Results {
		if wr == nil || wr.Err != "" || wr.Steps != full.Steps || wr.Digest != ref.Digests[r] {
			t.Errorf("rank %d result %+v, want %d steps and the reference digest %s", r, wr, full.Steps, ref.Digests[r])
		}
	}
}

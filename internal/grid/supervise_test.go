package grid

import (
	"io"
	"testing"

	"repro/internal/mlog"
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

// TestMultiProcResumeBitIdentical is the grid resume acceptance without a
// supervisor: run half the steps with checkpoints, then launch a SECOND
// grid (new rendezvous generation) that resumes from the directory and
// finishes — its digests must equal the uninterrupted reference's.
func TestMultiProcResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test (re-execs the test binary)")
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
	if _, err := launchSelf(t, half).Wait(); err != nil {
		t.Fatalf("prefix grid: %v", err)
	}

	// Second grid: full budget, resuming where the first stopped.
	resumed := full
	resumed.Resume = true
	resumed.Gen = 1
	results, err := launchSelf(t, resumed).Wait()
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
	if _, err := launchSelf(t, half).Wait(); err != nil {
		t.Fatalf("prefix grid: %v", err)
	}

	spec := full
	spec.Resume = true
	log := mlog.NewLogger(io.Discard)
	res, err := Supervise(spec, SuperviseOptions{Start: selfStart(t), Log: log})
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

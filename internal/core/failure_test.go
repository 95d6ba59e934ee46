package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/models"
	"repro/internal/transport"
)

// failingWorkload trains normally until failEpoch, then fails sticky the
// way the engine-backed workloads do when a multi-process peer dies: Err
// turns non-nil, TrainEpoch degrades to a no-op.
type failingWorkload struct {
	epoch     int
	failEpoch int
	err       error
}

func (f *failingWorkload) TrainEpoch() float64 {
	if f.err != nil {
		return 0
	}
	f.epoch++
	if f.epoch >= f.failEpoch {
		f.err = &transport.PeerError{Rank: 1, Op: "recv", Err: transport.ErrHeartbeat}
	}
	return 1.0 / float64(f.epoch)
}
func (f *failingWorkload) Evaluate() float64 { return 0.1 * float64(f.epoch) }
func (f *failingWorkload) Epoch() int        { return f.epoch }
func (f *failingWorkload) Err() error        { return f.err }

func failingBenchmark(failEpoch int) (Benchmark, *failingWorkload) {
	w := &failingWorkload{failEpoch: failEpoch}
	b := Benchmark{
		ID: "failing", Target: 10.0, RequiredRuns: 5, MaxEpochs: 8,
		New: func(seed uint64) models.Workload { return w },
	}
	return b, w
}

// TestRunSurfacesWorkloadFailure: a sticky engine failure (e.g. a dead
// worker process) must become a run-level error — no evaluation of the
// half-trained model, status "failed" in the MLLOG stream.
func TestRunSurfacesWorkloadFailure(t *testing.T) {
	b, _ := failingBenchmark(3)
	res := Run(b, RunConfig{Seed: 1, Clock: clock.NewTick(1)})

	var pe *transport.PeerError
	if !errors.As(res.Err, &pe) || pe.Rank != 1 {
		t.Fatalf("RunResult.Err = %v; want the workload's *transport.PeerError", res.Err)
	}
	if res.Converged {
		t.Fatal("failed run marked converged")
	}
	if res.Epochs != 3 {
		t.Fatalf("failed at epoch 3 but recorded %d epochs", res.Epochs)
	}
	// Epochs 1 and 2 evaluated normally; the failing epoch 3 must not.
	if len(res.QualityCurve) != 2 {
		t.Fatalf("quality curve has %d points; want 2 (no evaluation after the failure)", len(res.QualityCurve))
	}
	if s := res.String(); !strings.Contains(s, "FAILED") {
		t.Fatalf("summary %q does not surface the failure", s)
	}
	found := false
	for _, e := range res.Log.Events {
		if e.Key == "status" && e.Value == "failed" {
			found = true
		}
	}
	if !found {
		t.Fatal(`MLLOG stream has no status "failed" event`)
	}
}

// TestResultSetFirstErr: run-level failures propagate through the §3.2.2
// run-set aggregation as a set-level error naming the failed run.
func TestResultSetFirstErr(t *testing.T) {
	rs := ResultSet{Benchmark: "failing", Runs: []RunResult{{Benchmark: "failing", Seed: 1, Converged: true}}}
	if err := rs.FirstErr(); err != nil {
		t.Fatalf("clean set FirstErr = %v", err)
	}

	b, _ := failingBenchmark(2)
	failed := Run(b, RunConfig{Seed: 2, Clock: clock.NewTick(1)})
	rs.Runs = append(rs.Runs, failed)
	err := rs.FirstErr()
	if err == nil {
		t.Fatal("FirstErr nil with a failed run in the set")
	}
	var pe *transport.PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("FirstErr %v does not preserve the typed cause", err)
	}
	if !strings.Contains(err.Error(), "seed 2") {
		t.Fatalf("FirstErr %v does not name the failed run", err)
	}
}

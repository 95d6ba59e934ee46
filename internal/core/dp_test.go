package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// A data-parallel run must flow through the same timing rules and produce
// the same MLLOG structure as a serial run.
func TestDPBenchmarkRunProducesCompliantLog(t *testing.T) {
	b, err := Configure(V05, "recommendation", TrainConfig{Parallel: Parallel{DP: 2, Microbatches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Model, "data-parallel") {
		t.Fatalf("model description %q not annotated", b.Model)
	}
	var buf bytes.Buffer
	r := Run(b, RunConfig{
		Seed:      1,
		MaxEpochs: 2,
		Clock:     clock.NewTick(time.Millisecond),
		LogWriter: &buf,
	})
	if r.Epochs < 1 || r.Epochs > 2 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.FinalQuality <= 0 || r.FinalQuality > 1 {
		t.Fatalf("implausible HR@10 %v", r.FinalQuality)
	}
	log := buf.String()
	for _, key := range []string{"run_start", "run_stop", "eval_accuracy", "benchmark"} {
		if !strings.Contains(log, key) {
			t.Fatalf("MLLOG stream missing %q:\n%s", key, log)
		}
	}
}

// Data-parallel workloads compose with the concurrent run-set executor:
// results stay in run order and quality values match a serial execution of
// the same set.
func TestDPBenchmarkInRunSet(t *testing.T) {
	b, err := Configure(V05, "recommendation", TrainConfig{Parallel: Parallel{DP: 2, Microbatches: 8}})
	if err != nil {
		t.Fatal(err)
	}
	serial := RunSet(b, RunSetConfig{Run: RunConfig{Seed: 3, MaxEpochs: 1}, Runs: 2, Workers: 1})
	conc := RunSet(b, RunSetConfig{Run: RunConfig{Seed: 3, MaxEpochs: 1}, Runs: 2, Workers: 2})
	if len(serial.Runs) != 2 || len(conc.Runs) != 2 {
		t.Fatalf("run counts %d/%d", len(serial.Runs), len(conc.Runs))
	}
	for i := range serial.Runs {
		if serial.Runs[i].FinalQuality != conc.Runs[i].FinalQuality {
			t.Fatalf("run %d quality %v (serial) vs %v (concurrent)", i, serial.Runs[i].FinalQuality, conc.Runs[i].FinalQuality)
		}
		if serial.Runs[i].Seed != conc.Runs[i].Seed {
			t.Fatalf("run %d seed mismatch", i)
		}
	}
}

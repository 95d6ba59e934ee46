package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
)

// A pipeline-parallel run must flow through the same timing rules and
// produce the same MLLOG structure as a serial run.
func TestPPBenchmarkRunProducesCompliantLog(t *testing.T) {
	b, err := Configure(V05, "image_classification", TrainConfig{Parallel: Parallel{PPStages: 2, Microbatches: 4, PPSchedule: "1f1b"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Model, "pipeline") {
		t.Fatalf("model description %q not annotated", b.Model)
	}
	var buf bytes.Buffer
	r := Run(b, RunConfig{
		Seed:      1,
		MaxEpochs: 1,
		Clock:     clock.NewTick(time.Millisecond),
		LogWriter: &buf,
	})
	if r.Epochs != 1 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
	if r.FinalQuality <= 0 || r.FinalQuality > 1 {
		t.Fatalf("implausible top-1 accuracy %v", r.FinalQuality)
	}
	log := buf.String()
	for _, key := range []string{"run_start", "run_stop", "eval_accuracy", "benchmark"} {
		if !strings.Contains(log, key) {
			t.Fatalf("MLLOG stream missing %q:\n%s", key, log)
		}
	}
}

// Hybrid DP×PP runs train to the same quality as pure pipeline runs at the
// same seed and microbatch count (trainable parameters are bit-identical;
// only per-replica BatchNorm statistics may drift, which the shared-model
// evaluation path tolerates).
func TestPPBenchmarkHybridAnnotated(t *testing.T) {
	b, err := Configure(V05, "image_classification", TrainConfig{Parallel: Parallel{PPStages: 2, DP: 2, Microbatches: 4, PPSchedule: "gpipe"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Model, "hybrid DP×2 PP×2") {
		t.Fatalf("model description %q not annotated as hybrid", b.Model)
	}
	r := Run(b, RunConfig{Seed: 2, MaxEpochs: 1, Clock: clock.NewTick(time.Millisecond)})
	if r.Epochs != 1 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
}

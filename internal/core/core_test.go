package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/mlog"
	"repro/internal/models"
	"repro/internal/tensor"
)

func TestSuiteMatchesTable1(t *testing.T) {
	s := Suite(V05)
	if len(s) != 7 {
		t.Fatalf("Table 1 lists 7 benchmarks, suite has %d", len(s))
	}
	byID := map[string]Benchmark{}
	for _, b := range s {
		byID[b.ID] = b
	}
	// Spot-check the Table 1 thresholds.
	if byID["image_classification"].Target != 0.749 {
		t.Fatal("ResNet target must be 74.9% top-1")
	}
	if byID["translation_gnmt"].Target != 21.8 {
		t.Fatal("GNMT target must be 21.8 BLEU")
	}
	if byID["translation_transformer"].Target != 25.0 {
		t.Fatal("Transformer target must be 25.0 BLEU")
	}
	if byID["recommendation"].Target != 0.635 {
		t.Fatal("NCF target must be 0.635 HR@10")
	}
	if byID["object_detection_ssd"].Target != 0.212 {
		t.Fatal("SSD target must be 21.2 mAP")
	}
}

func TestV06RaisesTargets(t *testing.T) {
	v5 := map[string]float64{}
	for _, b := range Suite(V05) {
		v5[b.ID] = b.Target
	}
	raised := 0
	for _, b := range Suite(V06) {
		if b.Target > v5[b.ID] {
			raised++
		}
		if b.Target < v5[b.ID] {
			t.Fatalf("%s target lowered in v0.6", b.ID)
		}
	}
	if raised < 3 {
		t.Fatalf("v0.6 should raise several targets, raised %d", raised)
	}
}

func TestFindBenchmark(t *testing.T) {
	if _, err := FindBenchmark(V05, "recommendation"); err != nil {
		t.Fatal(err)
	}
	if _, err := FindBenchmark(V05, "nonsense"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestOlympicMean(t *testing.T) {
	times := []time.Duration{5 * time.Second, 1 * time.Second, 3 * time.Second, 2 * time.Second, 4 * time.Second}
	// Drop 1s and 5s; mean of 2,3,4 = 3s.
	if got := OlympicMean(times); got != 3*time.Second {
		t.Fatalf("olympic mean %v", got)
	}
}

func TestOlympicMeanPanicsOnTooFew(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OlympicMean([]time.Duration{1, 2})
}

// Property: olympic mean lies within [min, max] of the retained samples and
// is outlier-robust: inflating the single slowest run must not change it.
func TestOlympicMeanRobustProperty(t *testing.T) {
	rng := tensor.NewRNG(1)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 4 + r.Intn(8)
		times := make([]time.Duration, n)
		for i := range times {
			times[i] = time.Duration(1+r.Intn(1000)) * time.Millisecond
		}
		base := OlympicMean(times)
		// Find and inflate the maximum.
		maxI := 0
		for i, v := range times {
			if v > times[maxI] {
				maxI = i
			}
		}
		times[maxI] *= 1000
		return OlympicMean(times) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRequiredRuns: the §3.2.2 run count is 5 for the vision benchmarks
// and 10 for the rest, in both rounds.
func TestRequiredRuns(t *testing.T) {
	for _, v := range []Version{V05, V06} {
		for _, b := range Suite(v) {
			want := 10
			if b.Area == AreaVision {
				want = 5
			}
			if b.RequiredRuns != want {
				t.Errorf("%s %s requires %d runs, want %d", v, b.ID, b.RequiredRuns, want)
			}
		}
	}
}

func TestSpreadStats(t *testing.T) {
	times := []time.Duration{100, 101, 102, 103, 200} // outliers dropped
	st := Spread(times, 0.05)
	if st.FracWithin != 1 {
		t.Fatalf("retained samples should be within 5%%: %+v", st)
	}
}

func TestResultSetScoreAndCompleteness(t *testing.T) {
	rs := ResultSet{Benchmark: "x"}
	for i := 0; i < 5; i++ {
		rs.Runs = append(rs.Runs, RunResult{Benchmark: "x", Converged: true, TimeToTrain: time.Duration(i+1) * time.Second, Epochs: i + 5})
	}
	score, err := rs.Score(5)
	if err != nil {
		t.Fatal(err)
	}
	if score != 3*time.Second {
		t.Fatalf("score %v", score)
	}
	if _, err := rs.Score(6); err == nil {
		t.Fatal("insufficient runs must error")
	}
	if got := rs.EpochsToTarget(); len(got) != 5 || got[0] != 5 {
		t.Fatalf("epochs-to-target %v", got)
	}
}

// fastBenchmark is a synthetic workload for timing-rule tests: quality
// climbs deterministically by 0.25 per epoch.
type fakeWorkload struct{ epoch int }

func (f *fakeWorkload) TrainEpoch() float64 {
	f.epoch++
	return 1.0 / float64(f.epoch)
}
func (f *fakeWorkload) Evaluate() float64 { return 0.25 * float64(f.epoch) }
func (f *fakeWorkload) Epoch() int        { return f.epoch }

func fakeBenchmark(target float64, maxEpochs int) Benchmark {
	return Benchmark{
		ID: "fake", Target: target, RequiredRuns: 5, MaxEpochs: maxEpochs,
		New: func(seed uint64) models.Workload { return &fakeWorkload{} },
	}
}

func TestRunnerStopsAtTarget(t *testing.T) {
	r := Run(fakeBenchmark(0.75, 10), RunConfig{Seed: 1})
	if !r.Converged || r.Epochs != 3 {
		t.Fatalf("should converge at epoch 3: %+v", r)
	}
	if len(r.QualityCurve) != 3 {
		t.Fatalf("quality curve %v", r.QualityCurve)
	}
}

func TestRunnerDNFAtEpochCap(t *testing.T) {
	r := Run(fakeBenchmark(10.0, 4), RunConfig{Seed: 1})
	if r.Converged || r.Epochs != 4 {
		t.Fatalf("should DNF at the cap: %+v", r)
	}
	if status := mlog.Find(r.Log.Events, mlog.KeyStatus); status == nil || status.Value != "aborted" {
		t.Fatal("DNF must log aborted status")
	}
}

func TestTimingExcludesSystemInit(t *testing.T) {
	clk := &clock.Sim{}
	r := Run(fakeBenchmark(0.75, 10), RunConfig{
		Seed:  1,
		Clock: clk,
		SystemInit: func(clock.Clock) {
			clk.Advance(2 * time.Hour) // diagnostics on every node...
		},
	})
	if r.TimeToTrain >= time.Hour {
		t.Fatalf("system init must be excluded from timing: %v", r.TimeToTrain)
	}
	if r.ExcludedInit != 2*time.Hour {
		t.Fatalf("excluded init %v", r.ExcludedInit)
	}
}

func TestTimingExcludesCompilationUpToCap(t *testing.T) {
	// 10 minutes of compilation: fully excluded.
	clk := &clock.Sim{}
	r := Run(fakeBenchmark(0.75, 10), RunConfig{
		Seed:  1,
		Clock: clk,
		ModelCreation: func(clock.Clock) {
			clk.Advance(10 * time.Minute)
		},
	})
	if r.TimeToTrain >= time.Minute {
		t.Fatalf("10-minute compile must be excluded: %v", r.TimeToTrain)
	}
	if r.ExcludedCompile != 10*time.Minute {
		t.Fatalf("excluded compile %v", r.ExcludedCompile)
	}

	// 50 minutes of compilation: only 20 excluded, 30 counted (§3.2.1
	// discourages impractically expensive compilation).
	clk2 := &clock.Sim{}
	r2 := Run(fakeBenchmark(0.75, 10), RunConfig{
		Seed:  1,
		Clock: clk2,
		ModelCreation: func(clock.Clock) {
			clk2.Advance(50 * time.Minute)
		},
	})
	if r2.ExcludedCompile != CompileExclusionCap {
		t.Fatalf("excluded compile capped at 20m, got %v", r2.ExcludedCompile)
	}
	if r2.TimeToTrain < 30*time.Minute {
		t.Fatalf("compile beyond the cap must count: %v", r2.TimeToTrain)
	}
}

func TestRunnerLogsRequiredEvents(t *testing.T) {
	r := Run(fakeBenchmark(0.75, 10), RunConfig{Seed: 9})
	ev := r.Log.Events
	for _, key := range []string{mlog.KeyBenchmark, mlog.KeySeed, mlog.KeyQualityTarget,
		mlog.KeyRunStart, mlog.KeyRunStop, mlog.KeyEvalAccuracy, mlog.KeyEpochStart} {
		if mlog.Find(ev, key) == nil {
			t.Fatalf("log missing %s", key)
		}
	}
	if seed := mlog.Find(ev, mlog.KeySeed); seed.Value != uint64(9) {
		t.Fatalf("seed logged as %v", seed.Value)
	}
}

func TestRunnerEvalEvery(t *testing.T) {
	r := Run(fakeBenchmark(10, 6), RunConfig{Seed: 1, EvalEvery: 2})
	if got := len(mlog.FindAll(r.Log.Events, mlog.KeyEvalAccuracy)); got != 3 {
		t.Fatalf("eval every 2 epochs over 6 epochs: %d evals", got)
	}
}

func TestClosedRulesBatchAlwaysModifiable(t *testing.T) {
	for _, id := range BenchmarkIDs(V05) {
		rules := ClosedRules(id)
		found := false
		for _, r := range rules {
			if r.Name == "batch_size" && r.Modifiable {
				found = true
			}
			if r.Name == "model_architecture" && r.Modifiable {
				t.Fatal("architecture is never modifiable in Closed")
			}
		}
		if !found {
			t.Fatalf("%s: batch size must be modifiable (§3.4)", id)
		}
	}
}

func TestCheckClosedHyperparams(t *testing.T) {
	// Compliant: LR follows linear scaling for 4x batch.
	ok := CheckClosedHyperparams("image_classification", 128, 32, []HParamChoice{
		{Name: "learning_rate", Value: 0.4, Reference: 0.1},
	})
	if len(ok) != 0 {
		t.Fatalf("compliant choice flagged: %v", ok)
	}
	// Violation: LR unchanged despite 4x batch change is fine (value ==
	// reference is never a violation)...
	same := CheckClosedHyperparams("image_classification", 128, 32, []HParamChoice{
		{Name: "learning_rate", Value: 0.1, Reference: 0.1},
	})
	if len(same) != 0 {
		t.Fatalf("unchanged value flagged: %v", same)
	}
	// ...but an arbitrary LR change that matches no scaling rule is not.
	bad := CheckClosedHyperparams("image_classification", 128, 32, []HParamChoice{
		{Name: "learning_rate", Value: 3.7, Reference: 0.1},
	})
	if len(bad) == 0 {
		t.Fatal("off-rule LR change must be flagged")
	}
	// Frozen hyperparameter changed.
	frozen := CheckClosedHyperparams("recommendation", 64, 64, []HParamChoice{
		{Name: "optimizer", Value: 2, Reference: 1},
	})
	if len(frozen) == 0 {
		t.Fatal("optimizer change must be flagged in Closed")
	}
	// Unknown hyperparameter changed.
	unknown := CheckClosedHyperparams("recommendation", 64, 64, []HParamChoice{
		{Name: "mystery_knob", Value: 2, Reference: 1},
	})
	if len(unknown) == 0 {
		t.Fatal("unknown hyperparameter change must be flagged")
	}
}

func TestEndToEndNCFConvergesUnderHarness(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	r := Run(b, RunConfig{Seed: 3, LogWriter: &sb})
	if !r.Converged {
		t.Fatalf("NCF should converge: %+v", r)
	}
	if r.FinalQuality < b.Target {
		t.Fatal("final quality below target despite convergence")
	}
	// The streamed MLLOG must parse and agree with the in-memory log.
	events, err := mlog.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(r.Log.Events) {
		t.Fatalf("streamed %d events, logged %d", len(events), len(r.Log.Events))
	}
	if q, ok := mlog.FinalAccuracy(events); !ok || math.Abs(q-r.FinalQuality) > 1e-12 {
		t.Fatal("final accuracy mismatch between stream and result")
	}
}

func TestRunSeedReproducibility(t *testing.T) {
	b, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	a := Run(b, RunConfig{Seed: 5})
	c := Run(b, RunConfig{Seed: 5})
	if a.Epochs != c.Epochs || a.FinalQuality != c.FinalQuality {
		t.Fatalf("same seed must reproduce: %d/%f vs %d/%f", a.Epochs, a.FinalQuality, c.Epochs, c.FinalQuality)
	}
}

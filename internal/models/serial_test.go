package models_test

// The engine models learn. A serial run of them is the suite row, the
// internal/pipeline engine at one replica, one stage and one microbatch,
// so these tests train through core (from an external test package: core
// imports models), or on that engine built here when a test needs the
// model itself or a smaller dataset.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/transport"
)

// serial is the suite's serial run of benchmark id from seed.
func serial(t *testing.T, id string, seed uint64) *pipeline.Workload {
	t.Helper()
	b, err := core.FindBenchmark(core.V05, id)
	if err != nil {
		t.Fatal(err)
	}
	w := b.New(seed).(*pipeline.Workload)
	t.Cleanup(w.Close)
	return w
}

// serialEngine is the engine a serial run trains on (K = S = M = 1), over
// a model m with optimizer o on a dataset of n examples.
func serialEngine(t *testing.T, m pipeline.Trainable, o opt.Optimizer, batch, n int, seed uint64) *pipeline.Engine {
	t.Helper()
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1}, Stages: 1, Microbatches: 1,
		GlobalBatch: batch, DatasetN: n, Seed: seed,
	}, func(int) []pipeline.StageReplica { return pipeline.Whole(m, o) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

func TestImageClassificationLearns(t *testing.T) {
	epochs, margin := 4, 0.05
	if testing.Short() {
		epochs, margin = 2, 0.0
	}
	w := serial(t, "image_classification", 42)
	before := w.Evaluate()
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		lastLoss = w.TrainEpoch()
	}
	after := w.Evaluate()
	if after <= before+margin {
		t.Fatalf("accuracy should improve: %.3f -> %.3f", before, after)
	}
	if lastLoss > 2.0 {
		t.Fatalf("loss should fall below chance level: %v", lastLoss)
	}
	if w.Epoch() != epochs {
		t.Fatal("epoch accounting")
	}
}

func TestRecommendationConvergesToTarget(t *testing.T) {
	w := serial(t, "recommendation", 42)
	reached := false
	for e := 0; e < 25 && !reached; e++ {
		w.TrainEpoch()
		if w.Evaluate() >= 0.635 {
			reached = true
		}
	}
	if !reached {
		t.Fatal("NCF must reach the 0.635 HR@10 target within 25 epochs")
	}
}

func TestTransformerLearnsTransduction(t *testing.T) {
	w := serial(t, "translation_transformer", 42)
	if testing.Short() {
		l0 := w.TrainEpoch()
		l1 := w.TrainEpoch()
		if l1 >= l0 {
			t.Fatalf("transformer loss should fall: %v -> %v", l0, l1)
		}
		return
	}
	for e := 0; e < 5; e++ {
		w.TrainEpoch()
	}
	if bleu := w.Evaluate(); bleu < 10 {
		t.Fatalf("transformer BLEU after 5 epochs: %v", bleu)
	}
}

func TestWorkloadSeedsDiverge(t *testing.T) {
	a := serial(t, "recommendation", 1)
	b := serial(t, "recommendation", 2)
	a.TrainEpoch()
	b.TrainEpoch()
	if a.Evaluate() == b.Evaluate() {
		t.Log("note: different seeds coincided this epoch (possible but unlikely)")
	}
	// Same seed must reproduce exactly (the replicability goal).
	c := serial(t, "recommendation", 1)
	c.TrainEpoch()
	if a.Evaluate() != c.Evaluate() {
		t.Fatal("same seed must reproduce the same quality exactly")
	}
}

func TestPrecisionPolicyDegradesTraining(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure-1 comparison needs 4 epochs of two models (~3.5s)")
	}
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	// The suite row has no precision knob: build the same serial engine
	// over a model whose optimizer applies the policy.
	run := func(policy precision.Policy) *models.ImageClassification {
		hp := models.DefaultImageHParams()
		hp.Precision = policy
		m := models.NewImageClassification(ds, hp, 7)
		eng := serialEngine(t, m, m.Opt, hp.Batch, ds.Cfg.TrainN, 7)
		eng.SetLRSchedule(m.Sched)
		for e := 0; e < 4; e++ {
			eng.TrainEpoch()
		}
		return m
	}
	full := run(precision.FullPrecision())
	tern := run(precision.WeightsOnly(precision.Ternary))
	if tern.Evaluate() >= full.Evaluate() {
		t.Fatalf("ternary weights should underperform fp64 (fig 1): %v vs %v",
			tern.Evaluate(), full.Evaluate())
	}
}

func TestGNMTLearnsTransduction(t *testing.T) {
	if testing.Short() {
		// A quarter-size corpus: the loss must fall epoch over epoch.
		cfg := datasets.DefaultMTConfig()
		cfg.TrainN, cfg.ValN = 192, 32
		ds := datasets.GenerateMT(cfg)
		hp := models.DefaultGNMTHParams()
		m := models.NewRNNTranslation(ds, hp, 42)
		eng := serialEngine(t, m, m.Opt, hp.Batch, len(ds.Train), 42)
		l0 := eng.TrainEpoch()
		l1 := eng.TrainEpoch()
		if l1 >= l0 {
			t.Fatalf("GNMT loss should fall: %v -> %v", l0, l1)
		}
		return
	}
	w := serial(t, "translation_gnmt", 42)
	for e := 0; e < 5; e++ {
		w.TrainEpoch()
	}
	if bleu := w.Evaluate(); bleu < 10 {
		t.Fatalf("GNMT BLEU after 5 epochs: %v", bleu)
	}
}

func TestSSDLearns(t *testing.T) {
	epochs, shrink := 8, 2.0
	if testing.Short() {
		epochs, shrink = 2, 1.0 // loss must at least fall
	}
	w := serial(t, "object_detection_ssd", 42)
	var loss0, lossN float64
	for e := 0; e < epochs; e++ {
		l := w.TrainEpoch()
		if e == 0 {
			loss0 = l
		}
		lossN = l
	}
	if lossN >= loss0/shrink {
		t.Fatalf("detection loss should shrink %.0fx: %v -> %v", shrink, loss0, lossN)
	}
	if ap := w.Evaluate(); ap < 0 || ap > 1 {
		t.Fatalf("mAP out of range: %v", ap)
	}
}

func TestMaskRCNNReachesBothTargets(t *testing.T) {
	ds := datasets.GenerateDetection(datasets.DefaultDetConfig())
	hp := models.DefaultMaskHParams()
	m := models.NewInstanceSegmentation(ds, hp, 42)
	eng := serialEngine(t, m, m.Opt, hp.Batch, len(ds.Train), 42)
	if testing.Short() {
		l0 := eng.TrainEpoch()
		l1 := eng.TrainEpoch()
		if l1 >= l0 {
			t.Fatalf("Mask R-CNN loss should fall: %v -> %v", l0, l1)
		}
		return
	}
	reached := false
	for e := 0; e < 20 && !reached; e++ {
		eng.TrainEpoch()
		if m.Evaluate() >= 1.0 {
			reached = true
		}
	}
	if !reached {
		t.Fatal("Mask R-CNN must meet both box and mask AP targets within 20 epochs")
	}
}

// TestRecommendationDivergedMissesTarget: a diverged NCF scores NaN on
// every candidate, and its HR@10 must count no hits, so the §3.3 target
// check never scores a NaN run as converged.
func TestRecommendationDivergedMissesTarget(t *testing.T) {
	b, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	w := models.NewRecommendation(datasets.GenerateRec(datasets.DefaultRecConfig()), models.DefaultNCFHParams(), 1)
	w.Net.Out.B.Value.Data[0] = math.NaN()
	if hr := w.Evaluate(); !(hr < b.Target) {
		t.Fatalf("HR@10 of a NaN model = %v, want below the %v target", hr, b.Target)
	}
}

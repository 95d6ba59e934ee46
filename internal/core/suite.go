package core

import (
	"fmt"
	"sync"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/precision"
)

// Version identifies a benchmark round. Two rounds have run to date
// (§4: v0.5 and v0.6, six months apart).
type Version string

// The published rounds.
const (
	V05 Version = "v0.5"
	V06 Version = "v0.6"
)

// Area groups benchmarks for reporting (Table 1 rows).
type Area string

// Benchmark areas.
const (
	AreaVision   Area = "Vision"
	AreaLanguage Area = "Language"
	AreaCommerce Area = "Commerce"
	AreaResearch Area = "Research"
)

// Benchmark is one row of Table 1: a task, dataset, model, quality
// threshold, and the run-count rule of §3.2.2.
type Benchmark struct {
	// ID is the stable benchmark identifier (what FindBenchmark and the
	// CLIs' -benchmark flag select).
	ID string
	// Task is the human-readable task name from Table 1.
	Task string
	// Area groups the benchmark for reporting.
	Area Area
	// Dataset documents the dataset (and our synthetic stand-in).
	Dataset string
	// Model documents the network model.
	Model string
	// QualityMetric names the quality measure.
	QualityMetric string
	// Target is the quality threshold a run must reach (§3.3).
	Target float64
	// RequiredRuns is the number of timing samples (§3.2.2: "Five runs are
	// required for vision tasks ... and for all other tasks, ten runs are
	// required").
	RequiredRuns int
	// MaxEpochs caps a run; exceeding it is a non-converged run (DNF).
	MaxEpochs int
	// Numerics is the compute regime New trains in (Configure sets it; the
	// zero value is the float64 reference), logged by Run under
	// mlog.KeyNumerics.
	Numerics precision.Numerics
	// New constructs a fresh workload instance for one timed run.
	New func(seed uint64) models.Workload
}

// Datasets are generated once per process: generation is the untimed
// "data reformatting" stage of §3.2.1, shared by every run.
var (
	imgDSOnce = sync.OnceValue(func() *datasets.ImageDataset {
		return datasets.GenerateImages(datasets.DefaultImageConfig())
	})
	detDSOnce = sync.OnceValue(func() *datasets.DetDataset {
		return datasets.GenerateDetection(datasets.DefaultDetConfig())
	})
	mtDSOnce = sync.OnceValue(func() *datasets.MTDataset {
		return datasets.GenerateMT(datasets.DefaultMTConfig())
	})
	recDSOnce = sync.OnceValue(func() *datasets.RecDataset {
		return datasets.GenerateRec(datasets.DefaultRecConfig())
	})
)

// imageHParams returns the image-classification reference hyperparameters
// for a round: what engineModelOf builds the model from at every topology.
func imageHParams(v Version) models.ImageHParams {
	hp := models.DefaultImageHParams()
	if v == V06 {
		hp.UseLARS = true // rule change admitted in v0.6 (§5)
		hp.WarmupEpochs = 2
	}
	return hp
}

// gnmtHParams returns the GNMT reference hyperparameters for a round.
func gnmtHParams(v Version) models.MTHParams {
	hp := models.DefaultGNMTHParams()
	if v == V06 {
		hp.D = 24 // §6: GNMT architecture improved in v0.6
	}
	return hp
}

// Suite returns the benchmark list for a round. The v0.6 revision follows
// §6: ResNet adds the LARS optimizer for large batches, the GNMT model is
// improved for higher translation quality, MiniGo's reference is made
// faster, and quality targets are raised accordingly.
//
// Every benchmark but MiniGo trains on the engine at every topology; its
// row here is the serial run, the engine at K = S = M = 1 (engineConfig).
func Suite(v Version) []Benchmark {
	// Every dataset is generated here, before any run of any row.
	imgDSOnce()
	recDSOnce()
	detDSOnce()
	mtDSOnce()
	serial := func(id string) func(uint64) models.Workload {
		return engineNew(v, id, engineConfig(Parallel{}, precision.Numerics{}))
	}

	resnetTarget := 0.749 // mirrors the paper's 74.9% top-1
	gnmtTarget := 21.8    // Table 1 Sacre BLEU
	minigoTarget := 0.25  // paper: 40% pro-move; here the moves to predict are a 96-sim MCTS oracle's
	if v == V06 {
		resnetTarget = 0.759 // §6: targets increased in v0.6
		gnmtTarget = 24.0
		minigoTarget = 0.27
	}

	suite := []Benchmark{
		{
			ID: "image_classification", Task: "Image Classification",
			Area: AreaVision, Dataset: "synthimage (ImageNet stand-in)",
			Model: "ResNet-50 v1.5 (scaled)", QualityMetric: "Top-1 accuracy",
			Target: resnetTarget, RequiredRuns: 5, MaxEpochs: 40,
			New: serial("image_classification"),
		},
		{
			ID: "object_detection_ssd", Task: "Object Detection (light weight)",
			Area: AreaVision, Dataset: "synthdet (COCO 2017 stand-in)",
			Model: "SSD-ResNet-34 (scaled)", QualityMetric: "mAP",
			Target: 0.212, RequiredRuns: 5, MaxEpochs: 45,
			New: serial("object_detection_ssd"),
		},
		{
			ID: "instance_segmentation_maskrcnn", Task: "Instance Segmentation and Object Detection (heavy weight)",
			Area: AreaVision, Dataset: "synthdet (COCO 2017 stand-in)",
			Model: "Mask R-CNN (scaled)", QualityMetric: "min(Box AP/0.377, Mask AP/0.339)",
			Target: 1.0, RequiredRuns: 5, MaxEpochs: 30,
			New: serial("instance_segmentation_maskrcnn"),
		},
		{
			ID: "translation_gnmt", Task: "Translation (recurrent)",
			Area: AreaLanguage, Dataset: "synthmt (WMT16 EN-DE stand-in)",
			Model: "GNMT (scaled)", QualityMetric: "Sacre BLEU",
			Target: gnmtTarget, RequiredRuns: 10, MaxEpochs: 25,
			New: serial("translation_gnmt"),
		},
		{
			ID: "translation_transformer", Task: "Translation (non-recurrent)",
			Area: AreaLanguage, Dataset: "synthmt (WMT17 EN-DE stand-in)",
			Model: "Transformer (scaled)", QualityMetric: "BLEU",
			Target: 25.0, RequiredRuns: 10, MaxEpochs: 25,
			New: serial("translation_transformer"),
		},
		{
			ID: "recommendation", Task: "Recommendation",
			Area: AreaCommerce, Dataset: "synthrec (MovieLens-20M stand-in, fractal expansion)",
			Model: "NCF (NeuMF)", QualityMetric: "HR@10",
			Target: 0.635, RequiredRuns: 10, MaxEpochs: 30,
			New: serial("recommendation"),
		},
		{
			ID: "reinforcement_learning", Task: "Reinforcement Learning",
			Area: AreaResearch, Dataset: "self-play (9x9 Go in the paper; scaled board here)",
			Model: "MiniGo (policy+value net, MCTS self-play)", QualityMetric: "oracle move prediction",
			Target: minigoTarget, RequiredRuns: 10, MaxEpochs: 60,
			New: func(seed uint64) models.Workload {
				return models.NewReinforcementLearning(models.DefaultMiniGoHParams(), seed)
			},
		},
	}
	return suite
}

// FindBenchmark returns the suite entry with the given ID.
func FindBenchmark(v Version, id string) (Benchmark, error) {
	for _, b := range Suite(v) {
		if b.ID == id {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("core: unknown benchmark %q in %s", id, v)
}

// BenchmarkIDs lists the suite's benchmark identifiers in Table-1 order.
func BenchmarkIDs(v Version) []string {
	var out []string
	for _, b := range Suite(v) {
		out = append(out, b.ID)
	}
	return out
}

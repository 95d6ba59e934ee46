// Package models implements the seven MLPerf Training v0.5 benchmark
// models of Table 1, scaled to laptop size but structurally faithful:
// ResNet-v1.5-style image classifier, SSD-style one-stage detector,
// Mask R-CNN-style two-stage detector/segmenter, GNMT-style recurrent
// translator, Transformer translator, NCF recommender, and the MiniGo
// self-play reinforcement-learning agent.
//
// They reach the measurement harness (internal/core) two ways. Six are
// engine models: the image classifier, both detectors, both translators
// and NCF build the loss of one microbatch (MicrobatchLoss, and
// PipelineStages where the model splits), and every run of them, serial
// included, is the internal/pipeline engine's step loop. MiniGo is the one
// Workload that owns its training loop. Its model produces its training
// set: each epoch adds self-play games to a replay window, and the window
// changes size over the early epochs. Moving it onto the engine would mean
// a loader over a dataset that grows between epochs, which only this
// benchmark would use. (The interface also stays because the frozen bench/
// driver embeds it.)
package models

// Workload is one benchmark instance bound to its dataset, seed, and
// hyperparameters. The harness repeatedly calls TrainEpoch and Evaluate
// until the quality threshold is reached (time-to-train, §3.2).
type Workload interface {
	// TrainEpoch runs one pass over the training data, returning the mean
	// training loss (for logging).
	TrainEpoch() float64
	// Evaluate computes the benchmark's quality metric on validation data.
	// Evaluation is inside time-to-train (§3.2.1), so each model owns its
	// eval state and keeps it across calls: its eval tapes, rewound per
	// batch, image or sentence, and its eval lists, built on the first
	// call. A warm call's forward passes allocate nothing; what remains is
	// the metric's own work (BLEU's n-gram counts, mAP's detection lists).
	// Evaluate is not safe for concurrent use, and needs no lock: the
	// harness's run loop (core.Run) is its one caller, between epochs.
	Evaluate() float64
	// Epoch returns the number of completed training epochs.
	Epoch() int
}

// Package models implements the seven MLPerf Training v0.5 benchmark
// models of Table 1, scaled to laptop size but structurally faithful:
// ResNet-v1.5-style image classifier, SSD-style one-stage detector,
// Mask R-CNN-style two-stage detector/segmenter, GNMT-style recurrent
// translator, Transformer translator, NCF recommender, and the MiniGo
// self-play reinforcement-learning agent.
//
// They reach the measurement harness (internal/core) two ways. The image
// classifier, the Transformer and NCF are engine models: they build the
// loss of one microbatch (MicrobatchLoss, and PipelineStages where the
// model splits), and every run of them, serial included, is the
// internal/pipeline engine's step loop. The other four are Workloads that
// own their training loop.
package models

import (
	"repro/internal/autograd"
	"repro/internal/opt"
)

// Workload is one benchmark instance bound to its dataset, seed, and
// hyperparameters. The harness repeatedly calls TrainEpoch and Evaluate
// until the quality threshold is reached (time-to-train, §3.2).
type Workload interface {
	// TrainEpoch runs one pass over the training data, returning the mean
	// training loss (for logging).
	TrainEpoch() float64
	// Evaluate computes the benchmark's quality metric on validation data.
	Evaluate() float64
	// Epoch returns the number of completed training epochs.
	Epoch() int
}

// trainStep is one step of a Workload's own loop: zero grads, run forward
// to a loss on a fresh tape, backprop, run postBackward (gradient
// clipping; may be nil), optimizer step. It returns the loss value.
func trainStep(params []*autograd.Param, o opt.Optimizer, forward func(tape *autograd.Tape) *autograd.Var, postBackward func()) float64 {
	for _, p := range params {
		p.ZeroGrad()
	}
	tape := autograd.NewTape()
	loss := forward(tape)
	tape.Backward(loss)
	if postBackward != nil {
		postBackward()
	}
	o.Step()
	return loss.Scalar()
}

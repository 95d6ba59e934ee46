package models

// Microbatch adapters: the internal/pipeline engine at one stage drives
// the engine models through a finer-grained contract than Workload — it
// owns the loader, tape, and optimizer step itself and only needs the
// forward pass for one microbatch of a global batch. The methods below
// (and the detectors' and GNMT's, beside their models) satisfy
// pipeline.Trainable structurally. All stochasticity (negative sampling,
// augmentation, proposal jitter) flows through the rng argument, which the
// engine derives from (seed, step, microbatch), so a microbatch sees
// identical randomness at every worker count — the bit-identity invariant
// the engine's tests assert.

import (
	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Params exposes the recommendation model's trainable parameters
// (pipeline.Trainable contract).
func (w *Recommendation) Params() []*autograd.Param { return w.params }

// MicrobatchLoss builds the NCF training loss for one microshard of
// interaction indices (pipeline.Trainable contract). Negative sampling draws
// from the supplied rng. Batch assembly reuses the model's persistent
// buffers, so a warm call allocates nothing.
func (w *Recommendation) MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var {
	w.busers, w.bitems, w.blabels = w.DS.AppendTrainBatch(
		w.busers[:0], w.bitems[:0], w.blabels[:0], idx, w.HP.NegRatio, rng)
	w.ctx = nn.Ctx{Tape: tape, Train: true, RNG: rng}
	logits := w.Net.Forward(&w.ctx, w.busers, w.bitems)
	return autograd.BCEWithLogits(logits, w.blabels)
}

// Params exposes the image-classification model's trainable parameters
// (pipeline.Trainable contract).
func (w *ImageClassification) Params() []*autograd.Param { return w.params }

// MicrobatchLoss builds the ResNet training loss for one microshard of
// image indices (pipeline.Trainable contract). Augmentation draws from the
// supplied rng. Batch-norm statistics are computed per microshard (ghost
// batch norm, as in real data-parallel training without synchronized BN),
// and running eval statistics accumulate per replica; trainable parameters
// remain bit-identical across replicas. The Figure-1 precision policy is
// the optimizer's (imageOptimizer), not the forward pass's.
func (w *ImageClassification) MicrobatchLoss(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var {
	var aug *datasets.Augment
	if w.HP.Augment {
		if w.mbAug == nil {
			w.mbAug = &datasets.Augment{Flip: true, CropPad: 1, Jitter: 0.1}
		}
		w.mbAug.RNG = rng
		aug = w.mbAug
	}
	w.bx, w.blabels = w.DS.BatchInto(w.bx, w.blabels, true, idx, aug)
	w.ctx = nn.Ctx{Tape: tape, Train: true, RNG: rng}
	logits := w.Net.Forward(&w.ctx, tape.ConstOf(w.bx))
	return autograd.SoftmaxCrossEntropy(logits, w.blabels)
}

package models

import (
	"math"
	"testing"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// evaluateFresh is ImageClassification.Evaluate as it was before it kept
// eval storage: a new tape and batch tensor for every batch of 64.
func evaluateFresh(w *ImageClassification) (preds []int, acc float64) {
	var labels []int
	for lo := 0; lo < w.DS.Cfg.ValN; lo += 64 {
		hi := min(lo+64, w.DS.Cfg.ValN)
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, lb := w.DS.BatchInto(nil, nil, false, idx, nil)
		logits := w.Net.Forward(nn.NewCtx(autograd.NewTape(), false, nil), autograd.Const(x))
		preds = append(preds, logits.Value.ArgMaxRows()...)
		labels = append(labels, lb...)
	}
	return preds, metrics.Top1Accuracy(preds, labels)
}

// TestImageEvaluateWarmAllocFree holds Evaluate's reuse: the default
// validation split runs as batches of 64, 64 and 32, and a warm call
// allocates nothing (no tensor, tape node or buffer re-pooled between the
// two batch shapes) while returning the predictions and the accuracy bits
// of a fresh tape per batch.
func TestImageEvaluateWarmAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	w := NewImageClassification(ds, DefaultImageHParams(), 3)
	// One training forward moves the BatchNorm running statistics off
	// their initial values, so eval-mode normalization does real work.
	idx := make([]int, 32)
	for i := range idx {
		idx[i] = 2 * i
	}
	w.MicrobatchLoss(autograd.NewTape(), idx, tensor.NewRNG(1))

	wantPreds, wantAcc := evaluateFresh(w)
	var acc float64
	check := func(label string) {
		t.Helper()
		if math.Float64bits(acc) != math.Float64bits(wantAcc) {
			t.Fatalf("%s Evaluate = %v, a fresh tape per batch gives %v", label, acc, wantAcc)
		}
		if len(w.eval.preds) != len(wantPreds) {
			t.Fatalf("%s Evaluate made %d predictions, want %d", label, len(w.eval.preds), len(wantPreds))
		}
		for i, p := range wantPreds {
			if w.eval.preds[i] != p {
				t.Fatalf("%s Evaluate: sample %d predicted %d, a fresh tape %d", label, i, w.eval.preds[i], p)
			}
		}
	}
	acc = w.Evaluate()
	check("cold")
	if n := testing.AllocsPerRun(3, func() { acc = w.Evaluate() }); n != 0 {
		t.Errorf("warm Evaluate allocates %v times per call, want 0", n)
	}
	check("warm")
}

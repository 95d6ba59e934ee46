package models

// Absolute pin of MiniGo's training bits. MiniGo keeps its own training
// loop, so the engine pins (internal/grid, internal/core) never run it;
// this one does, on a reduced configuration: two epochs at seed 1, each
// epoch's loss, each Evaluate and a digest of the parameters and the
// BatchNorm running statistics, recorded before BatchNorm's loops were
// rewritten for speed. Any reordering of a floating-point sum inside the
// network, the search or the optimizer changes them.
//
// To regenerate after a change that is MEANT to move training bits: run
//
//	go test -run TestGoldenMiniGo -v ./internal/models
//
// and copy the "got" values from the failure message into the constants
// below, in the same commit as the change.

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/seal"
)

const goldenMiniGoEpochs = 2

var (
	goldenMiniGoLosses = [goldenMiniGoEpochs]uint64{0x4010182ddc14c80d, 0x4010584296b72300}
	// goldenMiniGoEvals holds Evaluate before training and after each
	// epoch.
	goldenMiniGoEvals  = [goldenMiniGoEpochs + 1]uint64{0x3fa1111111111111, 0x0, 0x3fa1111111111111}
	goldenMiniGoDigest = "654048f77d64f951"
)

// goldenMiniGoHParams is DefaultMiniGoHParams cut to a few self-play
// games of a shallow search, so the pin costs well under a second.
func goldenMiniGoHParams() MiniGoHParams {
	hp := DefaultMiniGoHParams()
	hp.GamesPerEpoch, hp.Sims = 2, 8
	hp.OracleSims, hp.OracleGames = 8, 1
	return hp
}

// miniGoDigest folds every parameter (in Params order, with its name) and
// every BatchNorm's running mean and variance into one hash.
func miniGoDigest(w *ReinforcementLearning) string {
	h := seal.New()
	for _, p := range w.params {
		h = h.Str(p.Name).Float64s(p.Value.Data)
	}
	n := w.Net
	for _, bn := range []*nn.BatchNorm2d{n.bn1, n.block.bn1, n.block.bn2, n.polBN, n.valBN} {
		h = h.Float64s(bn.RunMean.Data).Float64s(bn.RunVar.Data)
	}
	return h.Hex()
}

func TestGoldenMiniGo(t *testing.T) {
	w := NewReinforcementLearning(goldenMiniGoHParams(), 1)
	var losses [goldenMiniGoEpochs]uint64
	var evals [goldenMiniGoEpochs + 1]uint64
	evals[0] = math.Float64bits(w.Evaluate())
	for e := range losses {
		losses[e] = math.Float64bits(w.TrainEpoch())
		evals[e+1] = math.Float64bits(w.Evaluate())
	}
	if got := miniGoDigest(w); got != goldenMiniGoDigest || losses != goldenMiniGoLosses || evals != goldenMiniGoEvals {
		t.Fatalf("training bits moved:\n got digest %q losses %#x evals %#x\nwant digest %q losses %#x evals %#x",
			got, losses, evals, goldenMiniGoDigest, goldenMiniGoLosses, goldenMiniGoEvals)
	}
}

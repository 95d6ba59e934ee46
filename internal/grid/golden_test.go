package grid

// Absolute pin of the default ResNet's training bits.
//
// Every other identity test in the repo is relative (serial vs DP vs PP,
// run vs resume), so a kernel change that moved every path's bits the same
// way would pass them all. This one compares three steps at seed 1 to
// constants recorded on commit 4dd6c76, before the convolution kernels
// took their row form; any reordering of a floating-point sum inside a
// step changes them.
//
// To regenerate after a change that is MEANT to move training bits: run
//
//	go test -run TestGoldenResNetThreeSteps -v ./internal/grid
//
// and copy the "got" digest and loss bit patterns from the failure
// message into the constants below, in the same commit as the change.

import (
	"math"
	"testing"
)

const (
	goldenResNetSteps  = 3
	goldenResNetDigest = "902fd4632a200f72"
)

// goldenResNetLosses are the step losses as float64 bit patterns.
var goldenResNetLosses = [goldenResNetSteps]uint64{
	0x4003f7ff8114d18e, 0x4003cf3b14a8afc2, 0x40016fedec8967b6,
}

func TestGoldenResNetThreeSteps(t *testing.T) {
	// The same two microshards on every row: the microshard count fixes
	// the gradient's reduction order, the worker and stage counts do not.
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"serial", Spec{Benchmark: "image_classification", DP: 1, Microshards: 2, Seed: 1}},
		{"dp2", Spec{Benchmark: "image_classification", DP: 2, Microshards: 2, Seed: 1}},
		{"pp2", Spec{Benchmark: "image_classification", PP: 2, Microbatches: 2, Seed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Build(tc.spec, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			var losses [goldenResNetSteps]uint64
			for i := range losses {
				losses[i] = math.Float64bits(eng.StepNext())
				if err := eng.Err(); err != nil {
					t.Fatal(err)
				}
			}
			dig := NewDigest()
			dig.Add(eng.Params())
			if got := dig.Sum(); got != goldenResNetDigest || losses != goldenResNetLosses {
				t.Fatalf("training bits moved:\n got digest %q losses %#x\nwant digest %q losses %#x",
					got, losses, goldenResNetDigest, goldenResNetLosses)
			}
		})
	}
}

package dist_test

import (
	"bytes"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// TestDPResumeBitIdentity is the data-parallel resume contract: capture at
// step t, serialize through the checkpoint format, restore into a freshly
// built engine, and the continuation is bit-identical to the
// uninterrupted run — losses, parameters and, in the mixed regime, the
// loss-scale position. The mixed row grows its scale every 3 good steps,
// so by the capture it has left its initial value and a resume that drops
// the MP state ends somewhere else.
func TestDPResumeBitIdentity(t *testing.T) {
	const (
		workers     = 2
		microshards = 8
		batch       = 64
		seed        = 11
		stopAt      = 7
		total       = 14
	)
	mixed := precision.NumericsFor(tensor.BFloat16)
	mixed.MP.GrowthInterval = 3
	for _, tc := range []struct {
		name string
		num  precision.Numerics
	}{
		{"f64", precision.Numerics{}},
		{"bf16+mp", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newNCFEngineNumerics(t, workers, microshards, batch, seed, tc.num)
			defer ref.Close()
			for s := 0; s < stopAt; s++ {
				ref.StepNext()
			}
			st := ref.CaptureTrainState()
			if st.Step != stopAt {
				t.Fatalf("captured step = %d, want %d", st.Step, stopAt)
			}
			if tc.num.Mixed && (st.MP == nil || st.MP.Scale == tc.num.MP.InitScale) {
				t.Fatalf("captured MP state %+v: want a loss scale that has left %g", st.MP, tc.num.MP.InitScale)
			}

			// Round-trip through the serialized checkpoint: what lands on disk
			// is what resumes.
			var buf bytes.Buffer
			if _, err := ckpt.Save(&buf, st); err != nil {
				t.Fatalf("ckpt.Save: %v", err)
			}
			loaded, err := ckpt.Load(&buf)
			if err != nil {
				t.Fatalf("ckpt.Load: %v", err)
			}

			var refLosses []float64
			for s := stopAt; s < total; s++ {
				refLosses = append(refLosses, ref.StepNext())
			}
			refParams := flatValues(ref)

			res := newNCFEngineNumerics(t, workers, microshards, batch, seed, tc.num)
			defer res.Close()
			if err := res.RestoreTrainState(loaded); err != nil {
				t.Fatalf("RestoreTrainState: %v", err)
			}
			if res.Steps() != stopAt {
				t.Fatalf("restored engine at step %d, want %d", res.Steps(), stopAt)
			}
			if !res.InSync() {
				t.Fatal("restored replicas are not bit-identical")
			}
			for i, want := range refLosses {
				if got := res.StepNext(); got != want {
					t.Fatalf("resumed step %d loss = %v, reference %v", stopAt+i, got, want)
				}
			}
			gotParams := flatValues(res)
			for i := range refParams {
				if gotParams[i] != refParams[i] {
					t.Fatalf("param element %d = %g, reference %g (resume not bit-identical)", i, gotParams[i], refParams[i])
				}
			}
			if tc.num.Mixed {
				if got, want := *res.CaptureTrainState().MP, *ref.CaptureTrainState().MP; got != want {
					t.Fatalf("resumed MP state %+v, reference %+v", got, want)
				}
			}

			// A state from the other regime is refused, not half-applied.
			other := *loaded
			if tc.num.Mixed {
				other.MP = nil
			} else {
				other.MP = &precision.MPState{Scale: 1}
			}
			if err := res.RestoreTrainState(&other); err == nil {
				t.Fatal("accepted a train state whose mixed-precision presence differs from the engine's")
			}
		})
	}
}

// TestDPRestoreValidation checks structural mismatches are rejected.
func TestDPRestoreValidation(t *testing.T) {
	eng, _ := newNCFEngine(t, 2, 8, 64, 3)
	defer eng.Close()
	eng.StepNext()
	st := eng.CaptureTrainState()

	noParams := *st
	noParams.Params = nil
	if err := eng.RestoreTrainState(&noParams); err == nil {
		t.Error("accepted state without parameters")
	}
	noOpt := *st
	noOpt.Opts = nil
	if err := eng.RestoreTrainState(&noOpt); err == nil {
		t.Error("accepted state without optimizer state")
	}
	noLoader := *st
	noLoader.Loader = nil
	if err := eng.RestoreTrainState(&noLoader); err == nil {
		t.Error("accepted state without loader position")
	}
	if err := eng.RestoreTrainState(st); err != nil {
		t.Errorf("rejected valid state: %v", err)
	}
}

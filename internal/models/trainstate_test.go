package models_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/seal"
	"repro/internal/tensor"
)

// serialRec is the serial recommendation run in regime num: the suite row
// for the reference regime, core.Configure's serial engine otherwise.
func serialRec(t *testing.T, num precision.Numerics, seed uint64) *pipeline.Workload {
	t.Helper()
	b, err := core.Configure(core.V05, "recommendation", core.TrainConfig{Numerics: num})
	if err != nil {
		t.Fatal(err)
	}
	w := b.New(seed).(*pipeline.Workload)
	t.Cleanup(w.Close)
	return w
}

// paramsDigest folds current parameter values through FNV-1a.
func paramsDigest(w *pipeline.Workload) seal.Hash {
	h := seal.New()
	for _, p := range w.Params() {
		h = h.Float64s(p.Value.Data)
	}
	return h
}

// TestRecommendationResumeBitIdentity trains a reference serial run,
// captures the state mid-run, restores into a freshly built workload, and
// checks the resumed trajectory is bit-identical for the remaining epochs
// — for both the f64 reference regime and the mixed bf16 regime (whose
// loss-scale position rides in the checkpoint).
func TestRecommendationResumeBitIdentity(t *testing.T) {
	regimes := []struct {
		name string
		num  precision.Numerics
	}{
		{"f64", precision.Numerics{}},
		{"bf16_mixed", precision.Numerics{Compute: tensor.BFloat16}},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			ref := serialRec(t, rg.num, 42)
			ref.TrainEpoch()
			ref.TrainEpoch()
			st := ref.CaptureTrainState()
			if st.Step != ref.Engine().Steps() || st.Epoch != 2 {
				t.Fatalf("captured step/epoch = %d/%d, want %d/2", st.Step, st.Epoch, ref.Engine().Steps())
			}
			if rg.num.Mixed() && st.MP == nil {
				t.Fatal("mixed-regime state carries no loss-scale position")
			}
			refLoss3 := ref.TrainEpoch()
			refLoss4 := ref.TrainEpoch()

			res := serialRec(t, rg.num, 42)
			if err := res.RestoreTrainState(st); err != nil {
				t.Fatalf("RestoreTrainState: %v", err)
			}
			if res.Engine().Steps() != st.Step || res.Epoch() != st.Epoch {
				t.Fatalf("restored step/epoch = %d/%d, want %d/%d", res.Engine().Steps(), res.Epoch(), st.Step, st.Epoch)
			}
			if l := res.TrainEpoch(); l != refLoss3 {
				t.Fatalf("epoch 3 loss after resume = %v, reference %v", l, refLoss3)
			}
			if l := res.TrainEpoch(); l != refLoss4 {
				t.Fatalf("epoch 4 loss after resume = %v, reference %v", l, refLoss4)
			}
			if paramsDigest(res) != paramsDigest(ref) {
				t.Fatal("resumed parameters diverged from reference")
			}
			if rg.num.Mixed() {
				if got, want := *res.CaptureTrainState().MP, *ref.CaptureTrainState().MP; got != want {
					t.Fatalf("resumed MP state %+v, reference %+v", got, want)
				}
			}
		})
	}
}

// TestRestoreTrainStateValidation checks structural mismatches fail loudly.
// A checkpoint of the deleted serial loop carries its negative-sampling
// stream; the engine owns no saved stream, so it refuses one rather than
// resume on another trajectory.
func TestRestoreTrainStateValidation(t *testing.T) {
	w := serialRec(t, precision.Numerics{}, 42)
	w.TrainEpoch()
	st := w.CaptureTrainState()

	if err := w.RestoreTrainState(&models.TrainState{}); err == nil {
		t.Error("accepted state without parameter snapshot")
	}
	noLoader := *st
	noLoader.Loader = nil
	if err := w.RestoreTrainState(&noLoader); err == nil {
		t.Error("accepted state without loader position")
	}
	serialLoop := *st
	serialLoop.RNGs = []models.RNGEntry{{Label: "ncf_negative_sampling"}}
	if err := w.RestoreTrainState(&serialLoop); err == nil {
		t.Error("accepted a state carrying the serial loop's negative-sampling stream")
	}
	mixed := *st
	mixed.MP = &precision.MPState{Scale: 1}
	if err := w.RestoreTrainState(&mixed); err == nil {
		t.Error("accepted mixed-precision state into a full-precision workload")
	}
}

// TestRecommendationRestoreRefusedLeavesWorkloadUntouched refuses a state for
// each reason RestoreTrainState has, on a serial workload that has trained
// past the capture (so every parameter, moment and the loader position
// differ from the state's), and requires the workload's own captured state
// to be the same bits before and after. Every row's snapshot is good, so a
// restore that copies parameters before it has checked the rest fails
// every row.
func TestRecommendationRestoreRefusedLeavesWorkloadUntouched(t *testing.T) {
	w := serialRec(t, precision.Numerics{}, 42)
	w.TrainEpoch()
	st := w.CaptureTrainState()
	w.TrainEpoch()

	// The workload's state as its own checkpoint would hold it: parameters
	// and Adam moments by bit pattern, the loader cursor and the counters
	// by value.
	fingerprint := func() (seal.Hash, *models.TrainState) {
		now := w.CaptureTrainState()
		h := seal.New()
		for _, p := range now.Params.Params {
			h = h.Float64s(p.Data)
		}
		for _, slot := range now.Opts[0].Slots {
			h = h.Float64s(slot)
		}
		return h, now
	}
	wantHash, want := fingerprint()

	short := st.Opts[0]
	short.Slots = append(short.Slots[:0:0], short.Slots...)
	short.Slots[len(short.Slots)-1] = short.Slots[len(short.Slots)-1][1:]
	badLoader := *st.Loader
	badLoader.Order = badLoader.Order[1:]

	for _, tc := range []struct {
		name   string
		tamper func(*models.TrainState)
	}{
		{"no optimizer state", func(s *models.TrainState) { s.Opts = nil }},
		{"two optimizer states", func(s *models.TrainState) { s.Opts = append(s.Opts[:1:1], s.Opts[0]) }},
		{"short optimizer slot", func(s *models.TrainState) { s.Opts = []opt.State{short} }},
		{"no loader position", func(s *models.TrainState) { s.Loader = nil }},
		{"loader order of another dataset", func(s *models.TrainState) { s.Loader = &badLoader }},
		{"mixed-precision state into a full-precision workload", func(s *models.TrainState) { s.MP = &precision.MPState{Scale: 1} }},
		{"the serial loop's negative-sampling stream", func(s *models.TrainState) {
			s.RNGs = []models.RNGEntry{{Label: "ncf_negative_sampling"}}
		}},
	} {
		bad := *st
		tc.tamper(&bad)
		if err := w.RestoreTrainState(&bad); err == nil {
			t.Errorf("%s: state accepted", tc.name)
		}
		gotHash, got := fingerprint()
		if gotHash != wantHash {
			t.Errorf("%s: the refused restore changed parameters or moments", tc.name)
		}
		if !reflect.DeepEqual(got.Loader, want.Loader) || !reflect.DeepEqual(got.RNGs, want.RNGs) ||
			got.Step != want.Step || got.Epoch != want.Epoch || got.Opts[0].T != want.Opts[0].T {
			t.Errorf("%s: the refused restore moved the loader cursor, an RNG stream or a counter", tc.name)
		}
	}
	if err := w.RestoreTrainState(st); err != nil {
		t.Fatalf("rejected the untampered state: %v", err)
	}
}

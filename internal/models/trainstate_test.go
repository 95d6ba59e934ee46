package models

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datasets"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/seal"
	"repro/internal/tensor"
)

// paramsDigest folds current parameter values through FNV-1a.
func paramsDigest(w *Recommendation) seal.Hash {
	h := seal.New()
	for _, p := range w.params {
		h = h.Float64s(p.Value.Data)
	}
	return h
}

// TestRecommendationResumeBitIdentity trains a reference run, captures the
// state mid-run, restores into a freshly built workload, and checks the
// resumed trajectory is bit-identical for the remaining epochs — for both
// the f64 reference regime and the mixed bf16 regime (whose loss-scale
// position rides in the checkpoint).
func TestRecommendationResumeBitIdentity(t *testing.T) {
	regimes := []struct {
		name string
		num  precision.Numerics
	}{
		{"f64", precision.Numerics{}},
		{"bf16_mixed", precision.NumericsFor(tensor.BFloat16)},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			ds := datasets.GenerateRec(datasets.DefaultRecConfig())
			hp := DefaultNCFHParams()
			hp.Numerics = rg.num

			ref := NewRecommendation(ds, hp, 42)
			ref.TrainEpoch()
			ref.TrainEpoch()
			st := ref.CaptureTrainState()
			if st.Step != ref.Steps() || st.Epoch != 2 {
				t.Fatalf("captured step/epoch = %d/%d, want %d/2", st.Step, st.Epoch, ref.Steps())
			}
			refLoss3 := ref.TrainEpoch()
			refLoss4 := ref.TrainEpoch()

			res := NewRecommendation(ds, hp, 42)
			if err := res.RestoreTrainState(st); err != nil {
				t.Fatalf("RestoreTrainState: %v", err)
			}
			if res.Steps() != st.Step || res.Epoch() != st.Epoch {
				t.Fatalf("restored step/epoch = %d/%d, want %d/%d", res.Steps(), res.Epoch(), st.Step, st.Epoch)
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
		})
	}
}

// TestRestoreTrainStateValidation checks structural mismatches fail loudly.
func TestRestoreTrainStateValidation(t *testing.T) {
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	w := NewRecommendation(ds, DefaultNCFHParams(), 42)
	w.TrainEpoch()
	st := w.CaptureTrainState()

	if err := w.RestoreTrainState(&TrainState{}); err == nil {
		t.Error("accepted state without parameter snapshot")
	}
	noLoader := *st
	noLoader.Loader = nil
	if err := w.RestoreTrainState(&noLoader); err == nil {
		t.Error("accepted state without loader position")
	}
	noRNG := *st
	noRNG.RNGs = nil
	if err := w.RestoreTrainState(&noRNG); err == nil {
		t.Error("accepted state without the negative-sampling stream")
	}
	mixed := *st
	mixed.MP = &precision.MPState{Scale: 1}
	if err := w.RestoreTrainState(&mixed); err == nil {
		t.Error("accepted mixed-precision state into a full-precision workload")
	}
}

// TestRecommendationRestoreRefusedLeavesWorkloadUntouched refuses a state for
// each reason RestoreTrainState has, on a workload that has trained past the
// capture (so every parameter, moment and the loader position differ from
// the state's), and requires the workload's own captured state to be the
// same bits before and after. Every row's snapshot is good, so a restore
// that copies parameters before it has checked the rest fails every row.
func TestRecommendationRestoreRefusedLeavesWorkloadUntouched(t *testing.T) {
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	w := NewRecommendation(ds, DefaultNCFHParams(), 42)
	w.TrainEpoch()
	st := w.CaptureTrainState()
	w.TrainEpoch()

	// The workload's state as its own checkpoint would hold it: parameters
	// and Adam moments by bit pattern, the loader cursor and both RNG
	// streams by value.
	fingerprint := func() (seal.Hash, *TrainState) {
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
		tamper func(*TrainState)
	}{
		{"no optimizer state", func(s *TrainState) { s.Opts = nil }},
		{"two optimizer states", func(s *TrainState) { s.Opts = append(s.Opts[:1:1], s.Opts[0]) }},
		{"short optimizer slot", func(s *TrainState) { s.Opts = []opt.State{short} }},
		{"no loader position", func(s *TrainState) { s.Loader = nil }},
		{"loader order of another dataset", func(s *TrainState) { s.Loader = &badLoader }},
		{"mixed-precision state into a full-precision workload", func(s *TrainState) { s.MP = &precision.MPState{Scale: 1} }},
		{"no negative-sampling stream", func(s *TrainState) { s.RNGs = nil }},
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

// TestLoadSnapshotCorruptCountBounded is the regression test for the
// unbounded-allocation bug: a corrupt header claiming 2^27 values on a
// near-empty stream must fail at the read without allocating the gigabyte
// the count demands.
func TestLoadSnapshotCorruptCountBounded(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("MLPSNAP1")
	put := func(v any) { binary.Write(&buf, binary.LittleEndian, v) }
	put(uint32(3)) // benchmark name
	buf.WriteString("rec")
	put(uint32(1)) // one parameter
	put(uint32(1)) // name
	buf.WriteString("w")
	put(uint32(1))       // one dim
	put(uint32(1 << 27)) // dim value (irrelevant)
	put(uint32(1 << 27)) // value count: claims 1 GiB of float64s...
	for i := 0; i < 10; i++ {
		put(uint64(i)) // ...backed by 80 bytes
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("LoadSnapshot accepted truncated snapshot with corrupt count")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
		t.Fatalf("LoadSnapshot allocated %d bytes for a %d-byte input (count field drove allocation)",
			alloc, buf.Len())
	}
}

package models

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/tensor"
)

// trainedRecSnapshot takes a tiny NCF a few optimizer steps away from its
// initialization and snapshots it.
func trainedRecSnapshot(t *testing.T) (*datasets.RecDataset, *Recommendation, *Snapshot) {
	t.Helper()
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	w := NewRecommendation(ds, DefaultNCFHParams(), 7)
	rng := tensor.NewRNG(7)
	for step := 0; step < 8; step++ {
		idx := make([]int, w.HP.Batch)
		for i := range idx {
			idx[i] = (step*w.HP.Batch + i) % len(ds.Train)
		}
		for _, p := range w.Params() {
			p.ZeroGrad()
		}
		tape := autograd.NewTape()
		tape.Backward(w.MicrobatchLoss(tape, idx, rng))
		w.Opt.Step()
	}
	return ds, w, TakeSnapshot("recommendation", w.Params())
}

// TestSnapshotRoundTripBitIdentity is the training→serving handoff
// contract: save → load reproduces every parameter bit and the digest.
func TestSnapshotRoundTripBitIdentity(t *testing.T) {
	_, w, snap := trainedRecSnapshot(t)

	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := decodeWholeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Benchmark != snap.Benchmark {
		t.Errorf("benchmark %q, want %q", got.Benchmark, snap.Benchmark)
	}
	if got.Digest() != snap.Digest() {
		t.Errorf("digest %s, want %s", got.Digest(), snap.Digest())
	}
	if len(got.Params) != len(snap.Params) {
		t.Fatalf("%d params, want %d", len(got.Params), len(snap.Params))
	}
	for i, p := range got.Params {
		want := snap.Params[i]
		if p.Name != want.Name {
			t.Fatalf("param %d name %q, want %q", i, p.Name, want.Name)
		}
		if len(p.Data) != len(want.Data) {
			t.Fatalf("param %q: %d values, want %d", p.Name, len(p.Data), len(want.Data))
		}
		for j := range p.Data {
			if math.Float64bits(p.Data[j]) != math.Float64bits(want.Data[j]) {
				t.Fatalf("param %q value %d: bits %016x, want %016x",
					p.Name, j, math.Float64bits(p.Data[j]), math.Float64bits(want.Data[j]))
			}
		}
	}

	// Determinism of the byte format itself: same parameters, same bytes.
	var buf2 bytes.Buffer
	if err := snap.Save(&buf2); err != nil {
		t.Fatalf("second Save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("Save is not byte-deterministic")
	}

	// Restoring into a fresh model reproduces the trained parameters
	// bit for bit.
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	fresh := NewRecommendation(ds, DefaultNCFHParams(), 99) // different seed: different init
	if err := got.Restore(fresh.Params()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	wp, fp := w.Params(), fresh.Params()
	for i := range wp {
		for j := range wp[i].Value.Data {
			if math.Float64bits(wp[i].Value.Data[j]) != math.Float64bits(fp[i].Value.Data[j]) {
				t.Fatalf("restored param %q value %d differs", wp[i].Name, j)
			}
		}
	}
}

// TestSnapshotDetectsCorruption flips one byte anywhere in the payload and
// requires the digest check to reject the load.
func TestSnapshotDetectsCorruption(t *testing.T) {
	_, _, snap := trainedRecSnapshot(t)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw := buf.Bytes()
	// Flip a byte in the middle of the parameter payload.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := decodeWholeSnapshot(corrupt); err == nil {
		t.Error("the loader accepted a corrupted snapshot")
	}
	// Truncation must also fail, not return a partial snapshot.
	if _, err := decodeWholeSnapshot(raw[:len(raw)-9]); err == nil {
		t.Error("the loader accepted a truncated snapshot")
	}
}

// TestSnapshotRestoreMismatch requires typed failures when restoring into
// the wrong architecture.
func TestSnapshotRestoreMismatch(t *testing.T) {
	ds, _, snap := trainedRecSnapshot(t)
	hp := DefaultNCFHParams()
	hp.GMFDim = hp.GMFDim * 2 // different architecture
	other := NewRecommendation(ds, hp, 7)
	if err := snap.Restore(other.Params()); err == nil {
		t.Error("Restore accepted parameters of a different architecture")
	}
}

// A mismatch at the LAST parameter must leave the first untouched: Restore
// checks every entry before it copies any.
func TestSnapshotRestoreChecksBeforeCopying(t *testing.T) {
	ds, _, snap := trainedRecSnapshot(t)
	fresh := NewRecommendation(ds, DefaultNCFHParams(), 99)
	params := fresh.Params()
	before := TakeSnapshot("before", params).Digest()
	bad := &Snapshot{Benchmark: snap.Benchmark, Params: append([]SnapParam(nil), snap.Params...)}
	last := len(bad.Params) - 1
	bad.Params[last].Name += ".renamed"
	err := bad.Restore(params)
	if err == nil || !strings.Contains(err.Error(), params[last].Name) {
		t.Fatalf("Restore error %v does not name parameter %q", err, params[last].Name)
	}
	if after := TakeSnapshot("before", params).Digest(); after != before {
		t.Fatal("refused Restore overwrote parameters ahead of the mismatch")
	}
}

// TestRecPredictorMatchesModel: the forward-only inference path must score
// a (user, item) pair exactly as the training-side model does.
func TestRecPredictorMatchesModel(t *testing.T) {
	ds, w, snap := trainedRecSnapshot(t)
	p, err := NewRecPredictor(ds, DefaultNCFHParams(), snap, 3, 11)
	if err != nil {
		t.Fatalf("NewRecPredictor: %v", err)
	}
	if p.SnapshotDigest() != snap.Digest() {
		t.Errorf("predictor digest %s, want %s", p.SnapshotDigest(), snap.Digest())
	}
	// Reference scores from the training-side network, one query at a time.
	ctx := p.NewContext()
	out := make([]float64, 1)
	refCtx := p.NewContext() // second context: same params, fresh tape
	refOut := make([]float64, 1)
	for _, s := range []int{0, 1, p.Samples() / 2, p.Samples() - 1} {
		ctx.InferBatch([]int{s}, out)
		refCtx.InferBatch([]int{s}, refOut)
		if math.Float64bits(out[0]) != math.Float64bits(refOut[0]) {
			t.Fatalf("sample %d: contexts disagree: %v vs %v", s, out[0], refOut[0])
		}
		if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
			t.Fatalf("sample %d: non-finite prediction %v", s, out[0])
		}
	}
	// Batched inference must be bit-identical to one-at-a-time (per-row
	// independence + fixed GEMM accumulation order).
	n := 16
	samples := make([]int, n)
	batched := make([]float64, n)
	for i := range samples {
		samples[i] = (i * 37) % p.Samples()
	}
	ctx.InferBatch(samples, batched)
	for i, s := range samples {
		refCtx.InferBatch([]int{s}, refOut)
		if math.Float64bits(batched[i]) != math.Float64bits(refOut[0]) {
			t.Fatalf("sample %d: batched %v != single %v", s, batched[i], refOut[0])
		}
	}
	_ = w
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
	_, err := decodeWholeSnapshot(buf.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("the loader accepted truncated snapshot with corrupt count")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
		t.Fatalf("the loader allocated %d bytes for a %d-byte input (count field drove allocation)",
			alloc, buf.Len())
	}
}

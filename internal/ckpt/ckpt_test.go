package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/seal"
	"repro/internal/tensor"
)

// sampleState builds a representative TrainState exercising every section.
func sampleState() *models.TrainState {
	st := &models.TrainState{
		Step:  120,
		Epoch: 3,
		Params: &models.Snapshot{
			Benchmark: "recommendation",
			Params: []models.SnapParam{
				{Name: "w", Shape: []int{2, 2}, Data: []float64{1, -2.5, 3.25, 0}},
				{Name: "b", Shape: []int{2}, Data: []float64{0.5, -0.125}},
			},
		},
		Opts: []opt.State{
			{Kind: "adam", LR: 0.002, T: 120, Slots: [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}, {0.1}, {0.2}}},
		},
		MP:     &precision.MPState{Scale: 1 << 12, Good: 17, Steps: 100, Skipped: 3, Growths: 2, Backoffs: 1},
		Loader: &data.LoaderState{Order: []int{3, 1, 0, 2}, Pos: 2, Epoch: 3, RNG: tensor.RNGState{State: 42, Inc: 7}},
		RNGs: []models.RNGEntry{
			{Label: "ncf_negative_sampling", State: tensor.RNGState{State: 99, Inc: 13, Spare: 0.5, HasSpare: true}},
		},
	}
	st.SetMeta("digest_h", "deadbeef")
	st.SetMeta("digest_n", "120")
	return st
}

// newWriter is NewWriter for a test: its last persist lands before the
// test's temp directory is removed.
func newWriter(t *testing.T, dir string, keep int) *Writer {
	t.Helper()
	w, err := NewWriter(dir, keep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Flush() })
	return w
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st := sampleState()
	var buf bytes.Buffer
	dig, err := Save(&buf, st)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if len(dig) != 16 {
		t.Fatalf("digest %q is not 16 hex chars", dig)
	}
	got, err := decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\nsaved  %+v\nloaded %+v", st, got)
	}
}

func TestSaveDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	da, err := Save(&a, sampleState())
	if err != nil {
		t.Fatal(err)
	}
	db, err := Save(&b, sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || da != db {
		t.Fatalf("identical states produced different bytes or digests (%s vs %s)", da, db)
	}
	if d, err := Digest(sampleState()); err != nil || d != da {
		t.Fatalf("Digest = %s, %v; want %s", d, err, da)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Save(&buf, sampleState()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip one byte in the middle: the trailing seal must catch it before
	// any content is trusted.
	for _, off := range []int{len(magic) + 1, len(raw) / 2, len(raw) - 9} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := decode(bad); err == nil {
			t.Errorf("decode accepted checkpoint with byte %d flipped", off)
		}
	}

	// Truncation at any length must fail, never hang or over-allocate.
	for _, n := range []int{0, 4, len(magic), len(raw) / 3, len(raw) - 1} {
		if _, err := decode(raw[:n]); err == nil {
			t.Errorf("decode accepted %d-byte truncation of %d-byte checkpoint", n, len(raw))
		}
	}

	// Trailing garbage after a valid checkpoint changes the digest.
	if _, err := decode(append(append([]byte(nil), raw...), 0xAA)); err == nil {
		t.Error("decode accepted checkpoint with trailing garbage")
	}
}

func TestWriterAtomicAndRetention(t *testing.T) {
	dir := t.TempDir()
	w := newWriter(t, dir, 2)
	st := sampleState()
	var lastPath string
	for _, step := range []int{10, 20, 30, 40} {
		st.Step = step
		p, dig, err := w.Write(st, 0)
		if err != nil {
			t.Fatalf("Write step %d: %v", step, err)
		}
		if dig == "" {
			t.Fatalf("Write step %d returned empty digest", step)
		}
		lastPath = p
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	steps, err := rankSteps(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, []int{30, 40}) {
		t.Fatalf("retention kept steps %v, want [30 40]", steps)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".mlpckpt" {
			t.Fatalf("stray file %q left in checkpoint dir", e.Name())
		}
	}
	if lastPath != filepath.Join(dir, fileName(40, 0)) {
		t.Fatalf("last write landed at %q", lastPath)
	}
}

func TestLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	w := newWriter(t, dir, 5)
	st := sampleState()
	st.Step = 10
	if _, _, err := w.Write(st, 0); err != nil {
		t.Fatal(err)
	}
	st.Step = 20
	p20, _, err := w.Write(st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint: Latest must fall back to step 10.
	raw, err := os.ReadFile(p20)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(p20, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, path, err := Latest(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Step != 10 {
		t.Fatalf("Latest returned %+v (path %q), want the valid step-10 checkpoint", got, path)
	}

	// Empty / missing directories are a clean "nothing to resume".
	if got, _, err := Latest(t.TempDir(), 0); err != nil || got != nil {
		t.Fatalf("Latest on empty dir = %v, %v", got, err)
	}
	if got, _, err := Latest(filepath.Join(dir, "missing"), 0); err != nil || got != nil {
		t.Fatalf("Latest on missing dir = %v, %v", got, err)
	}
}

func TestLatestComplete(t *testing.T) {
	dir := t.TempDir()
	w := newWriter(t, dir, 5)
	st := sampleState()
	write := func(step, rank int) string {
		st.Step = step
		p, _, err := w.Write(st, rank)
		if err != nil {
			t.Fatalf("write step %d rank %d: %v", step, rank, err)
		}
		return p
	}
	// Step 10 complete on both ranks; step 20 only on rank 0 (the crash hit
	// between rank writes).
	write(10, 0)
	write(10, 1)
	write(20, 0)
	step, ok, err := LatestComplete(dir, 2)
	if err != nil || !ok || step != 10 {
		t.Fatalf("LatestComplete = %d, %v, %v; want 10, true, nil", step, ok, err)
	}
	// Completing step 20 moves the resume point forward.
	write(20, 1)
	step, ok, err = LatestComplete(dir, 2)
	if err != nil || !ok || step != 20 {
		t.Fatalf("LatestComplete = %d, %v, %v; want 20, true, nil", step, ok, err)
	}
	// Corrupting one rank's newest file drops the set back to step 10.
	p := filepath.Join(dir, fileName(20, 1))
	raw, _ := os.ReadFile(p)
	raw[len(raw)-1] ^= 0xFF
	os.WriteFile(p, raw, 0o644)
	step, ok, err = LatestComplete(dir, 2)
	if err != nil || !ok || step != 10 {
		t.Fatalf("LatestComplete after corruption = %d, %v, %v; want 10, true, nil", step, ok, err)
	}
	if _, ok, err := LatestComplete(t.TempDir(), 2); err != nil || ok {
		t.Fatalf("LatestComplete on empty dir = %v, %v", ok, err)
	}
}

// TestReadYourWrites: Write returns before its file is on disk, yet every
// reader in this process sees it. Two ranks write one directory and nobody
// flushes; Latest, LoadAt and LatestComplete all find each new step, and
// Write's digest is Digest's. At step 120 the state is sampleState, whose
// version-1 file an earlier commit wrote: the bytes must be its version-2
// form.
func TestReadYourWrites(t *testing.T) {
	v1, err := os.ReadFile("testdata/parent-sample.mlpckpt")
	if err != nil {
		t.Fatal(err)
	}
	parent := ImageV2(t, v1)
	dir := t.TempDir()
	writers := []*Writer{newWriter(t, dir, 0), newWriter(t, dir, 0)}
	st := sampleState()
	for _, step := range []int{120, 240} {
		st.Step = step
		want, err := Digest(st)
		if err != nil {
			t.Fatal(err)
		}
		paths := make([]string, len(writers))
		for rank, w := range writers {
			var dig string
			if paths[rank], dig, err = w.Write(st, rank); err != nil || dig != want {
				t.Fatalf("step %d rank %d: Write = %s, %v; want digest %s", step, rank, dig, err, want)
			}
		}
		for rank := range writers {
			if got, path, err := Latest(dir, rank); err != nil || got == nil || got.Step != step || path != paths[rank] {
				t.Fatalf("step %d rank %d: Latest = %v at %q, %v; want the step just written", step, rank, got, path, err)
			}
			if got, err := LoadAt(dir, step, rank); err != nil || !reflect.DeepEqual(got, st) {
				t.Fatalf("step %d rank %d: LoadAt = %+v, %v; want the state just written", step, rank, got, err)
			}
		}
		if got, ok, err := LatestComplete(dir, len(writers)); err != nil || !ok || got != step {
			t.Fatalf("LatestComplete = %d, %v, %v; want %d, true, nil", got, ok, err, step)
		}
		if step == 120 {
			if raw, err := os.ReadFile(paths[0]); err != nil || !bytes.Equal(raw, parent) {
				t.Fatalf("the step-120 file (err %v) differs from the version-2 form of testdata/parent-sample.mlpckpt", err)
			}
		}
	}
}

// TestPersistFaults: a persist that cannot reach its directory fails
// typed, and for good. The directory is removed under a live Writer, or
// replaced by a regular file (permission bits would not stop a process
// running as root). Write still returns the digest; Flush returns a
// "ckpt: write" error wrapping the cause, and every later Write returns
// that same error; no checkpoint appears.
func TestPersistFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault func(dir string) error
		cause error
	}{
		{"directory removed", os.RemoveAll, fs.ErrNotExist},
		{"directory replaced by a file", func(dir string) error {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			return os.WriteFile(dir, []byte("not a directory"), 0o644)
		}, syscall.ENOTDIR},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			w := newWriter(t, dir, 0)
			st := sampleState()
			if _, _, err := w.Write(st, 0); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tc.fault(dir); err != nil {
				t.Fatal(err)
			}

			st.Step++
			want, err := Digest(st)
			if err != nil {
				t.Fatal(err)
			}
			if _, dig, err := w.Write(st, 0); err != nil || dig != want {
				t.Fatalf("Write after the fault = %s, %v; want digest %s and no error yet", dig, err, want)
			}
			err = w.Flush()
			if !errors.Is(err, tc.cause) || !strings.HasPrefix(err.Error(), "ckpt: write ") {
				t.Fatalf("Flush = %v; want a \"ckpt: write\" error wrapping %v", err, tc.cause)
			}
			if _, _, again := w.Write(st, 0); again != err {
				t.Fatalf("the Write after a failed persist returned %v; want %v", again, err)
			}
			if again := w.Flush(); again != err {
				t.Fatalf("Flush after a failed persist returned %v; want %v", again, err)
			}
			if _, err := os.Lstat(filepath.Join(dir, fileName(st.Step, 0))); err == nil {
				t.Fatalf("a checkpoint for step %d appeared after the fault", st.Step)
			}
		})
	}
}

// TestParseNameCanonicalOnly: only names fileName produces are
// checkpoints. Sscanf alone would read (25, 0) out of every one of these.
func TestParseNameCanonicalOnly(t *testing.T) {
	if s, r, ok := parseName(fileName(25, 3)); !ok || s != 25 || r != 3 {
		t.Fatalf("parseName(fileName(25, 3)) = %d, %d, %v", s, r, ok)
	}
	for _, name := range []string{
		"ckpt-000000025-r000.mlpckpt.tmp-123", // a crashed Write's temp file
		"ckpt-000000025-r000.mlpckptX",
		"ckpt-25-r0.mlpckpt",          // not zero-padded
		"ckpt--00000025-r000.mlpckpt", // negative step, as Sprintf pads it
		"ckpt-000000025-r-01.mlpckpt",
		"xckpt-000000025-r000.mlpckpt",
		"ckpt-000000025-r000",
	} {
		if s, r, ok := parseName(name); ok {
			t.Errorf("parseName(%q) = %d, %d, true; want it rejected", name, s, r)
		}
	}
}

// TestRetainSweepsStaleTempFiles plants what a crash mid-write leaves
// behind. The stale temp file must not count as a step (it used to push a
// real checkpoint out of the retention window), and the next write of that
// rank removes it; other ranks' and foreign files are left alone.
func TestRetainSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	w := newWriter(t, dir, 2)
	const (
		stale      = "ckpt-000000025-r000.mlpckpt.tmp-123"
		otherRank  = "ckpt-000000025-r001.mlpckpt.tmp-456"
		suffixed   = "ckpt-000000026-r000.mlpckptX"
		unrelated  = "notes.tmp-1"
		staleBytes = "half a checkpoint"
	)
	for _, name := range []string{stale, otherRank, suffixed, unrelated} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(staleBytes), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if steps, err := rankSteps(dir, 0); err != nil || len(steps) != 0 {
		t.Fatalf("rankSteps over planted non-checkpoints = %v, %v; want none", steps, err)
	}
	if st, _, err := Latest(dir, 0); err != nil || st != nil {
		t.Fatalf("Latest over planted non-checkpoints = %v, %v; want nothing to resume", st, err)
	}

	st := sampleState()
	for _, step := range []int{10, 20} {
		st.Step = step
		if _, _, err := w.Write(st, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if steps, _ := rankSteps(dir, 0); !reflect.DeepEqual(steps, []int{10, 20}) {
		t.Errorf("retention kept steps %v, want [10 20]: a phantom step evicted a real checkpoint", steps)
	}
	left := map[string]bool{}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		left[e.Name()] = true
	}
	if left[stale] {
		t.Errorf("rank 0's stale temp file %s survived rank 0's write", stale)
	}
	for _, name := range []string{otherRank, suffixed, unrelated} {
		if !left[name] {
			t.Errorf("rank 0's write removed %s, which is not its to sweep", name)
		}
	}
}

// TestLoadsParentCheckpoint: a version-1 file an earlier commit wrote (its
// Save of sampleState) loads here, verified by its FNV-1a seal, to the
// same state, and re-saves as exactly its version-2 form.
func TestLoadsParentCheckpoint(t *testing.T) {
	const parentDigest = "a3b94ce2ef00021d"
	raw, err := os.ReadFile("testdata/parent-sample.mlpckpt")
	if err != nil {
		t.Fatal(err)
	}
	if m := string(raw[:len(magicV1)]); m != magicV1 || sealOf(raw).Hex() != parentDigest {
		t.Fatalf("the fixture is %q sealed %s, want %q sealed %s", m, sealOf(raw).Hex(), magicV1, parentDigest)
	}
	got, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sampleState()) {
		t.Errorf("the parent's checkpoint loaded as %+v", got)
	}
	want := ImageV2(t, raw)
	var buf bytes.Buffer
	if d, err := Save(&buf, got); err != nil || d != sealOf(want).Hex() || !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("re-saving the parent's checkpoint: digest %s, want %s, err %v, its version-2 form %v",
			d, sealOf(want).Hex(), err, bytes.Equal(buf.Bytes(), want))
	}
}

// reseal recomputes an edited image's trailing seal the way its magic's
// version seals, so the edit reaches the parser instead of failing the
// digest.
func reseal(img []byte) []byte {
	body := img[:len(img)-8]
	h := seal.Hash(seal.Sum64(body))
	if string(body[:len(magicV1)]) == magicV1 {
		h = seal.New().Bytes(body)
	}
	return binary.LittleEndian.AppendUint64(body[:len(body):len(body)], uint64(h))
}

// relabel returns img with its magic's version digit set to v.
func relabel(img []byte, v byte) []byte {
	img = bytes.Clone(img)
	img[len(magic)-1] = v
	return img
}

// TestLoadRefusesOtherVersions: the version digit picks the seal, so a
// relabelled image fails its digest, a checkpoint must embed a snapshot of
// its own version, and an unknown version is refused by name.
func TestLoadRefusesOtherVersions(t *testing.T) {
	v1, err := os.ReadFile("testdata/parent-sample.mlpckpt")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Append(nil, sampleState())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"v1 relabelled 2", relabel(v1, '2'), "digest mismatch"},
		{"v2 relabelled 1", relabel(v2, '1'), "digest mismatch"},
		{"v2 embedding a v1 snapshot", reseal(relabel(v1, '2')), "a version-2 checkpoint embeds a version-1 snapshot"},
		{"v1 embedding a v2 snapshot", reseal(relabel(v2, '1')), "a version-1 checkpoint embeds a version-2 snapshot"},
		{"v3", reseal(relabel(v2, '3')), `"MLPCKPT1" or "MLPCKPT2"`},
	} {
		if _, err := decode(tc.img); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRejectsNonCanonical: an image Append could not have written is
// refused even under a valid seal, so whatever loads re-saves identically.
func TestLoadRejectsNonCanonical(t *testing.T) {
	img, err := Append(nil, sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(reseal(bytes.Clone(img))); err != nil {
		t.Fatalf("reseal broke a valid image: %v", err)
	}

	// The loader RNG's HasSpare flag is the byte before the RNG-stream count.
	st := sampleState()
	st.RNGs, st.Meta = nil, nil
	short, _ := Append(nil, st)
	flag := len(short) - 8 - 4 - 4 - 1
	if short[flag] != 0 {
		t.Fatalf("byte %d is %d, expected the HasSpare flag (0)", flag, short[flag])
	}
	short[flag] = 2
	if _, err := decode(reseal(short)); err == nil {
		t.Error("decode accepted a flag byte of 2")
	}

	swapped := sampleState()
	swapped.Meta[0], swapped.Meta[1] = swapped.Meta[1], swapped.Meta[0]
	sorted, _ := Append(nil, swapped)
	if !bytes.Equal(sorted, img) {
		t.Fatal("Append did not put out-of-order meta in key order")
	}
	// "digest_h" and "digest_n" differ in their last byte: swap them in place.
	i, j := bytes.Index(img, []byte("digest_h")), bytes.Index(img, []byte("digest_n"))
	edited := bytes.Clone(img)
	edited[i+7], edited[j+7] = 'n', 'h'
	if _, err := decode(reseal(edited)); err == nil {
		t.Error("decode accepted meta keys out of order")
	}
}

// bigState is sampleState with tensors floats long: same structure, so the
// same number of tensors, at any size.
func bigState(floats int) *models.TrainState {
	st := sampleState()
	for i := range st.Params.Params {
		st.Params.Params[i].Shape = []int{floats}
		st.Params.Params[i].Data = make([]float64, floats)
	}
	for i := range st.Opts[0].Slots {
		st.Opts[0].Slots[i] = make([]float64, floats)
	}
	return st
}

// TestWriterWriteAllocsConstant: a warm Writer encodes into its kept
// buffer, so what a Write allocates (paths, the temp file, the directory
// listing) does not grow with the state.
func TestWriterWriteAllocsConstant(t *testing.T) {
	measure := func(st *models.TrainState) float64 {
		w := newWriter(t, t.TempDir(), 0)
		write := func() {
			if _, _, err := w.Write(st, 0); err != nil {
				t.Fatal(err)
			}
		}
		write() // sizes the buffer
		return testing.AllocsPerRun(5, write)
	}
	small, big := measure(sampleState()), measure(bigState(50000))
	// A few allocations of slack: the count is process-wide, and the race
	// detector's runtime adds its own.
	if big > small+10 || big > 80 {
		t.Errorf("warm Write allocates %v times for a 2.4 MB state, %v for a 500-byte one; want the same small constant", big, small)
	}
}

// TestLoadAllocsPerTensor: decoding allocates per tensor and per section,
// never per float.
func TestLoadAllocsPerTensor(t *testing.T) {
	st := bigState(50000)
	img, err := Append(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	tensors := len(st.Params.Params) + len(st.Opts[0].Slots)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := decode(img); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3*tensors + 24); allocs > limit {
		t.Errorf("decoding %d tensors of 50000 floats allocated %v times, want <= %v", tensors, allocs, limit)
	}
}

// FuzzLoad starts from (and plain `go test` replays) a valid image of each
// version, one cut inside each section, a flipped seal, and a resealed
// image whose first optimizer slot claims 2^28 values. Each input is also
// tried with its seal recomputed, so mutations reach the parser.
func FuzzLoad(f *testing.F) {
	v1, err := os.ReadFile("testdata/parent-sample.mlpckpt")
	if err != nil {
		f.Fatal(err)
	}
	img, err := Append(nil, sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	for _, img := range [][]byte{v1, img} {
		f.Add(img)
		// magic, step, snapshot header, snapshot values, optimizer header,
		// slots, MP, loader order, loader RNG, RNG streams, meta, seal.
		for _, n := range []int{5, 12, 40, 130, 160, 230, 300, 340, 370, 400, 450, len(img) - 2} {
			f.Add(img[:n])
			if n >= len(magic)+8 {
				f.Add(reseal(bytes.Clone(img[:n]))) // the cut under a valid seal
			}
		}
		flipped := bytes.Clone(img)
		flipped[len(flipped)-1] ^= 1
		f.Add(flipped)
	}
	huge := bytes.Clone(img)
	slot := bytes.Index(huge, []byte("adam")) + 4 + 8 + 8 + 4
	binary.LittleEndian.PutUint32(huge[slot:], 1<<28)
	f.Add(reseal(huge))

	f.Fuzz(func(t *testing.T, raw []byte) {
		inputs := [][]byte{raw}
		if len(raw) >= len(magic)+8 {
			inputs = append(inputs, reseal(bytes.Clone(raw)))
		}
		for _, in := range inputs {
			// TotalAlloc is the process's, and the fuzzing engine allocates
			// beside a decode: the least of three decodes is the decoder's
			// own (it is deterministic, so an over-allocation shows in
			// every one).
			var st *models.TrainState
			var err error
			got := uint64(math.MaxUint64)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				st, err = decode(in)
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			// Every decoded structure is backed by input bytes (a 24-byte
			// slot header by at least 4), plus a fixed allowance for errors.
			if limit := uint64(16*len(in)) + 4096; got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(in), got, limit)
			}
			if err != nil {
				continue
			}
			want := in
			if string(in[:len(magicV1)]) == magicV1 {
				want = ImageV2(t, in) // a version-1 image re-saves as version 2
			}
			if again, err := Append(nil, st); err != nil || !bytes.Equal(again, want) {
				t.Fatalf("an accepted %d-byte image re-saved to different bytes (err %v)", len(in), err)
			}
		}
	})
}

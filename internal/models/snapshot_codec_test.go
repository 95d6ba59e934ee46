package models

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/seal"
)

// refSnapshotDigest and refSnapshotSave are the version-1 encoder this
// codec replaced, kept verbatim as the oracle: one reflective binary.Write
// per value and a byte-at-a-time FNV-1a of its own. The bulk codec must
// reproduce its output, as snapshotV2 transforms it, bit for bit.
func refSnapshotDigest(s *Snapshot) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	mix64 := func(v uint64) {
		for sh := 0; sh < 64; sh += 8 {
			mix(byte(v >> sh))
		}
	}
	str := func(t string) {
		mix64(uint64(len(t)))
		for i := 0; i < len(t); i++ {
			mix(t[i])
		}
	}
	str(s.Benchmark)
	mix64(uint64(len(s.Params)))
	for _, p := range s.Params {
		str(p.Name)
		mix64(uint64(len(p.Shape)))
		for _, d := range p.Shape {
			mix64(uint64(d))
		}
		mix64(uint64(len(p.Data)))
		for _, v := range p.Data {
			mix64(math.Float64bits(v))
		}
	}
	return h
}

func refSnapshotSave(w io.Writer, s *Snapshot) error {
	var werr error
	write := func(v any) {
		if werr == nil {
			werr = binary.Write(w, binary.LittleEndian, v)
		}
	}
	str := func(t string) {
		write(uint32(len(t)))
		if werr == nil {
			_, werr = io.WriteString(w, t)
		}
	}
	if _, err := io.WriteString(w, "MLPSNAP1"); err != nil {
		return err
	}
	str(s.Benchmark)
	write(uint32(len(s.Params)))
	for _, p := range s.Params {
		str(p.Name)
		write(uint32(len(p.Shape)))
		for _, d := range p.Shape {
			write(uint32(d))
		}
		write(uint32(len(p.Data)))
		for _, v := range p.Data {
			write(math.Float64bits(v))
		}
	}
	write(refSnapshotDigest(s))
	return werr
}

// fixtureSnapshot is the content of testdata/parent-fixture.mlpsnap, which
// the parent commit's Save wrote: signed zero, a denormal, both infinities,
// a NaN with a payload, and an empty tensor.
func fixtureSnapshot() *Snapshot {
	return &Snapshot{
		Benchmark: "fixture",
		Params: []SnapParam{
			{Name: "w", Shape: []int{2, 3}, Data: []float64{1, -2.5, 3.25, 0, math.Copysign(0, -1), 1e-310}},
			{Name: "b", Shape: []int{3}, Data: []float64{math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000abc)}},
			{Name: "empty", Shape: []int{0}, Data: nil},
		},
	}
}

// snapshotV2 is everything version 2 changes in a version-1 image: the
// magic's version digit, and the trailer resealed with seal.Sum64 over
// every byte before it.
func snapshotV2(v1 []byte) []byte {
	img := bytes.Clone(v1)
	img[len(snapMagic)-1] = '2'
	n := len(img) - 8
	binary.LittleEndian.PutUint64(img[n:], seal.Sum64(img[:n]))
	return img
}

// snapshotBytes returns s's saved image.
func snapshotBytes(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotCodecMatchesReference(t *testing.T) {
	cases := map[string]*Snapshot{
		"fixture": fixtureSnapshot(),
		"empty":   {},
		"ncf": TakeSnapshot("recommendation",
			NewRecommendation(datasets.GenerateRec(datasets.DefaultRecConfig()), DefaultNCFHParams(), 3).Params()),
		"resnet": TakeSnapshot("image_classification",
			NewImageClassification(datasets.GenerateImages(datasets.DefaultImageConfig()), DefaultImageHParams(), 3).Params()),
		"transformer": TakeSnapshot("translation_transformer",
			NewTranslation(datasets.GenerateMT(datasets.DefaultMTConfig()), DefaultTransformerHParams(), 3).Params()),
	}
	for name, s := range cases {
		var ref bytes.Buffer
		if err := refSnapshotSave(&ref, s); err != nil {
			t.Fatalf("%s: reference save: %v", name, err)
		}
		got := snapshotBytes(t, s)
		if !bytes.Equal(got, snapshotV2(ref.Bytes())) {
			t.Errorf("%s: Save wrote %d bytes that differ from the reference encoder's %d, made version 2", name, len(got), ref.Len())
		}
		if !bytes.Equal(s.AppendTo([]byte("x"))[1:], got) {
			t.Errorf("%s: AppendTo after a prefix differs from Save", name)
		}
		if s.imageLen() != len(got) {
			t.Errorf("%s: imageLen %d, image is %d bytes", name, s.imageLen(), len(got))
		}
		if got, want := s.digest(), refSnapshotDigest(s); uint64(got) != want {
			t.Errorf("%s: digest %016x, reference %016x", name, uint64(got), want)
		}
		// Either version loads, and re-saves as version 2.
		for _, img := range [][]byte{got, ref.Bytes()} {
			back, err := decodeWholeSnapshot(img)
			if err != nil {
				t.Fatalf("%s: decode of %.8s: %v", name, img, err)
			}
			if !bytes.Equal(snapshotBytes(t, back), got) || back.Digest() != s.Digest() {
				t.Errorf("%s: a loaded %.8s snapshot re-saved to different bytes or digest", name, img)
			}
		}
	}
}

// TestSnapshotLoadsParentFixture: a version-1 file an earlier commit wrote
// loads here with the digest that commit reported, bit patterns intact,
// and re-saves as exactly its version-2 form.
func TestSnapshotLoadsParentFixture(t *testing.T) {
	const path, parentDigest = "testdata/parent-fixture.mlpsnap", "c9b184f7845461fc"
	got, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != parentDigest {
		t.Errorf("digest %s, the parent commit reported %s", got.Digest(), parentDigest)
	}
	want := fixtureSnapshot()
	for i, p := range got.Params {
		w := want.Params[i]
		if p.Name != w.Name || !shapeEq(p.Shape, w.Shape) || len(p.Data) != len(w.Data) {
			t.Fatalf("param %d = %q %v ×%d, want %q %v ×%d", i, p.Name, p.Shape, len(p.Data), w.Name, w.Shape, len(w.Data))
		}
		for j := range p.Data {
			if math.Float64bits(p.Data[j]) != math.Float64bits(w.Data[j]) {
				t.Errorf("param %q value %d: bits %016x, want %016x", p.Name, j, math.Float64bits(p.Data[j]), math.Float64bits(w.Data[j]))
			}
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:len(snapMagic)]) != "MLPSNAP1" {
		t.Fatalf("the fixture starts %q, want a version-1 image", raw[:len(snapMagic)])
	}
	if !bytes.Equal(snapshotBytes(t, got), snapshotV2(raw)) {
		t.Error("the parent's file did not re-save to its version-2 form")
	}
}

// TestSnapshotRefusesOtherVersions: the version digit picks the seal, so a
// relabelled image fails its digest, and an unknown version is refused by
// name.
func TestSnapshotRefusesOtherVersions(t *testing.T) {
	v1, err := os.ReadFile("testdata/parent-fixture.mlpsnap")
	if err != nil {
		t.Fatal(err)
	}
	v2 := snapshotBytes(t, fixtureSnapshot())
	relabel := func(img []byte, digit byte) []byte {
		img = bytes.Clone(img)
		img[len(snapMagic)-1] = digit
		return img
	}
	for name, img := range map[string][]byte{
		"v1 relabelled 2": relabel(v1, '2'),
		"v2 relabelled 1": relabel(v2, '1'),
	} {
		if _, err := decodeWholeSnapshot(img); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
			t.Errorf("%s: err %v, want a digest mismatch", name, err)
		}
	}
	_, err = decodeWholeSnapshot(relabel(v2, '3'))
	if err == nil || !strings.Contains(err.Error(), `"MLPSNAP1" or "MLPSNAP2"`) {
		t.Errorf("an MLPSNAP3 image: err %v, want one naming MLPSNAP1 and MLPSNAP2", err)
	}
}

func TestLoadSnapshotRejectsTrailingBytes(t *testing.T) {
	raw := append(snapshotBytes(t, fixtureSnapshot()), 0xAA)
	if _, err := decodeWholeSnapshot(raw); err == nil {
		t.Error("the loader accepted a byte after the digest")
	}
	if _, n, err := DecodeSnapshot(raw); err != nil || n != len(raw)-1 {
		t.Errorf("DecodeSnapshot of a snapshot with a suffix = %d bytes, %v; want %d, nil", n, err, len(raw)-1)
	}
}

// TestDecodeSnapshotAllocs: decoding allocates per tensor (name, shape,
// data), never per float.
func TestDecodeSnapshotAllocs(t *testing.T) {
	s := &Snapshot{Benchmark: "alloc"}
	for _, name := range []string{"a", "b", "c", "d"} {
		s.Params = append(s.Params, SnapParam{Name: name, Shape: []int{100, 500}, Data: make([]float64, 50000)})
	}
	raw := snapshotBytes(t, s)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := DecodeSnapshot(raw); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3*len(s.Params) + 8); allocs > limit {
		t.Errorf("DecodeSnapshot of %d tensors (%d floats) allocated %v times, want <= %v", len(s.Params), s.NumValues(), allocs, limit)
	}
}

// snapshotFuzzSeeds are the inputs FuzzLoadSnapshot starts from (and plain
// `go test` replays): a valid image of each version, one cut inside each
// kind of field, a flipped digest, and a tensor claiming 2^28 values it
// does not have.
func snapshotFuzzSeeds(t testing.TB) [][]byte {
	v1, err := os.ReadFile("testdata/parent-fixture.mlpsnap")
	if err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{{}}
	for _, raw := range [][]byte{v1, snapshotBytes(t, fixtureSnapshot())} {
		seeds = append(seeds, raw)
		// magic, benchmark length, benchmark, parameter count, name length,
		// dim count, dims, value count, values, trailing digest.
		for _, n := range []int{4, 10, 15, 21, 25, 30, 36, 42, 60, len(raw) - 3} {
			seeds = append(seeds, raw[:n])
		}
		flipped := bytes.Clone(raw)
		flipped[len(flipped)-1] ^= 1
		seeds = append(seeds, flipped)
	}

	huge := []byte(snapMagic)
	huge = binary.LittleEndian.AppendUint32(huge, 0) // benchmark ""
	huge = binary.LittleEndian.AppendUint32(huge, 1) // one parameter
	huge = binary.LittleEndian.AppendUint32(huge, 0) // name ""
	huge = binary.LittleEndian.AppendUint32(huge, 0) // no dims
	huge = binary.LittleEndian.AppendUint32(huge, 1<<28)
	return append(seeds, append(huge, make([]byte, 64)...))
}

// fuzzAllocLimit bounds what decoding n input bytes may allocate: every
// decoded structure is backed by input bytes (a 64-byte SnapParam by at
// least 12), plus a fixed allowance for errors and the cursor.
func fuzzAllocLimit(n int) uint64 { return uint64(16*n) + 4096 }

func FuzzLoadSnapshot(f *testing.F) {
	for _, s := range snapshotFuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		// TotalAlloc is the process's, and the fuzzing engine allocates
		// beside a decode: the least of three decodes is the decoder's own
		// (it is deterministic, so an over-allocation shows in every one).
		var s *Snapshot
		var n int
		var err error
		got := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, n, err = DecodeSnapshot(raw)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if limit := fuzzAllocLimit(len(raw)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(raw), got, limit)
		}
		if err != nil {
			return
		}
		want := raw[:n]
		if string(want[:len(snapMagic)]) != snapMagic {
			want = snapshotV2(want) // a version-1 image re-saves as version 2
		}
		if !bytes.Equal(s.AppendTo(nil), want) {
			t.Fatalf("an accepted %d-byte image re-saved to different bytes", n)
		}
		if _, err := decodeWholeSnapshot(raw); (err == nil) != (n == len(raw)) {
			t.Fatalf("decodeWholeSnapshot = %v on an image of %d bytes in %d", err, n, len(raw))
		}
	})
}

package seal

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// specials are the float64 bit patterns a lossy codec would disturb: quiet
// and signalling NaNs with payloads, both infinities, both zeros, the
// smallest and largest denormals.
var specials = []uint64{
	0x7ff8000000000abc, 0xfff8000000000001, 0x7ff0000000000001, 0x7ff4deadbeef0001,
	0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000000, 0x8000000000000000,
	0x0000000000000001, 0x800fffffffffffff,
	math.Float64bits(1.5), math.Float64bits(-math.MaxFloat64),
}

func specialFloats() []float64 {
	f := make([]float64, len(specials))
	for i, b := range specials {
		f[i] = math.Float64frombits(b)
	}
	return f
}

func TestHashMatchesFNV1a(t *testing.T) {
	for in, want := range map[string]string{
		"":       "cbf29ce484222325",
		"a":      "af63dc4c8601ec8c",
		"foobar": "85944171f73967e8",
	} {
		if got := New().Str(in).Hex(); got != want {
			t.Errorf("Str(%q) = %s, want %s", in, got, want)
		}
		if got := New().Bytes([]byte(in)).Hex(); got != want {
			t.Errorf("Bytes(%q) = %s, want %s", in, got, want)
		}
	}
	p := make([]byte, 1000)
	for i := range p {
		p[i] = byte(i * 131)
	}
	std := fnv.New64a()
	std.Write(p)
	// Folding in pieces continues the same state.
	if got := New().Bytes(p[:333]).Bytes(p[333:]); uint64(got) != std.Sum64() {
		t.Errorf("Bytes = %016x, hash/fnv = %016x", uint64(got), std.Sum64())
	}
}

func TestTypedFoldsEqualByteFold(t *testing.T) {
	f := specialFloats()
	img := AppendFloat64s(nil, f)
	if got, want := binary.LittleEndian.Uint32(img), uint32(len(f)); got != want {
		t.Fatalf("count prefix %d, want %d", got, want)
	}
	if got, want := New().Float64s(f), New().Bytes(img[4:]); got != want {
		t.Errorf("Float64s %s != Bytes over the encoding %s", got.Hex(), want.Hex())
	}
	v := uint64(0x0102030405060708)
	if got, want := New().Uint64(v), New().Bytes(binary.LittleEndian.AppendUint64(nil, v)); got != want {
		t.Errorf("Uint64 %s != Bytes over the encoding %s", got.Hex(), want.Hex())
	}
}

func TestFloat64sRoundTripBitExact(t *testing.T) {
	img := AppendFloat64s([]byte("prefix"), specialFloats())
	c := NewCursor(img[len("prefix"):])
	got := c.Float64s()
	if c.Err() != nil || c.Len() != 0 {
		t.Fatalf("decode: err %v, %d bytes left", c.Err(), c.Len())
	}
	for i, v := range got {
		if math.Float64bits(v) != specials[i] {
			t.Errorf("value %d: bits %016x, want %016x", i, math.Float64bits(v), specials[i])
		}
	}
	if c := NewCursor(AppendFloat64s(nil, nil)); len(c.Float64s()) != 0 || c.Err() != nil || c.Len() != 0 {
		t.Error("empty slice did not round-trip")
	}
}

func TestCursorBoundsEveryRead(t *testing.T) {
	img := AppendString(nil, "name")
	img = binary.LittleEndian.AppendUint32(img, 1<<28) // a count the input does not back
	img = append(img, 1, 2, 3)

	c := NewCursor(img)
	if s := c.Str(); s != "name" {
		t.Fatalf("Str = %q", s)
	}
	allocs := testing.AllocsPerRun(10, func() {
		c := Cursor{b: img[8:]}
		if f := c.Float64s(); f != nil || c.Err() == nil {
			t.Fatal("a 2^28 count over 3 bytes decoded")
		}
	})
	if allocs > 4 { // the error, never the 2 GiB
		t.Errorf("rejecting an unbacked count allocated %v times", allocs)
	}

	// The first failure sticks and later reads return zero values.
	c = NewCursor([]byte{1, 2})
	if c.U32() != 0 || c.Err() == nil {
		t.Fatal("U32 over 2 bytes succeeded")
	}
	first := c.Err()
	if c.U8() != 0 || c.U64() != 0 || c.Str() != "" || c.Take(1) != nil || c.count(1) != 0 || c.Err() != first {
		t.Error("reads after a failure did not return zero values with the first error")
	}
	if c.Len() != 2 {
		t.Errorf("a failed read consumed input: %d bytes left", c.Len())
	}
}

var sink Hash

// The fold is a serial multiply chain, so it bounds both codecs: a sealed
// image cannot be saved or verified faster than this.
func BenchmarkFoldBytes(b *testing.B) {
	p := make([]byte, 1<<20)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		sink = New().Bytes(p)
	}
}

func BenchmarkAppendFloat64s(b *testing.B) {
	f := make([]float64, 1<<17)
	buf := AppendFloat64s(nil, f)
	b.SetBytes(int64(8 * len(f)))
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendFloat64s(buf[:0], f)
	}
}

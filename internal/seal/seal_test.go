package seal

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand/v2"
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

func TestSum64MatchesXXH64(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
	} {
		if got := Sum64([]byte(tc.in)); got != tc.want {
			t.Errorf("Sum64(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
}

// refXXH64 is XXH64 with seed 0 laid out as xxHash's specification lays
// it out, step by step, reading each word a byte at a time.
func refXXH64(p []byte) uint64 {
	primes := [5]uint64{11400714785074694791, 14029467366897019727, 1609587929392839161, 9650029242287828579, 2870177450012600261}
	rotl := func(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }
	word := func(i, size int) uint64 { // little-endian, size bytes at p[i]
		var v uint64
		for b := size - 1; b >= 0; b-- {
			v = v<<8 | uint64(p[i+b])
		}
		return v
	}
	round := func(acc, lane uint64) uint64 {
		acc += lane * primes[1]
		acc = rotl(acc, 31)
		return acc * primes[0]
	}
	var acc uint64
	i := 0
	if len(p) < 32 {
		// Step 1, special case: a short input starts from prime 5.
		acc = primes[4]
	} else {
		// Step 1: initialize the four accumulators.
		var lanes [4]uint64
		lanes[0] = primes[0]
		lanes[0] += primes[1]
		lanes[1] = primes[1]
		lanes[2] = 0
		lanes[3] = 0
		lanes[3] -= primes[0]
		// Step 2: process every whole stripe of four lanes.
		for ; i+32 <= len(p); i += 32 {
			for l := range lanes {
				lanes[l] = round(lanes[l], word(i+8*l, 8))
			}
		}
		// Step 3: converge the accumulators.
		acc = rotl(lanes[0], 1) + rotl(lanes[1], 7) + rotl(lanes[2], 12) + rotl(lanes[3], 18)
		for _, lane := range lanes {
			acc ^= round(0, lane)
			acc = acc*primes[0] + primes[3]
		}
	}
	// Step 4: add the input length.
	acc += uint64(len(p))
	// Step 5: consume what remains, in 8-, 4- and 1-byte pieces.
	for ; i+8 <= len(p); i += 8 {
		acc ^= round(0, word(i, 8))
		acc = rotl(acc, 27)*primes[0] + primes[3]
	}
	if i+4 <= len(p) {
		acc ^= word(i, 4) * primes[0]
		acc = rotl(acc, 23)*primes[1] + primes[2]
		i += 4
	}
	for ; i < len(p); i++ {
		acc ^= uint64(p[i]) * primes[4]
		acc = rotl(acc, 11) * primes[0]
	}
	// Step 6: the final mix.
	acc ^= acc >> 33
	acc *= primes[1]
	acc ^= acc >> 29
	acc *= primes[2]
	acc ^= acc >> 32
	return acc
}

// TestSum64MatchesSpec compares Sum64 with the spec-shaped reference at
// every length up to eight stripes and a byte, so every tail (8, 4 and
// 1 bytes) follows both no stripe and several.
func TestSum64MatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	p := make([]byte, 257)
	for i := range p {
		p[i] = byte(rng.Uint32())
	}
	for n := 0; n <= len(p); n++ {
		if got, want := Sum64(p[:n]), refXXH64(p[:n]); got != want {
			t.Errorf("Sum64 of %d bytes = %016x, reference %016x", n, got, want)
		}
	}
	// An offset start: nothing may assume an aligned slice.
	if got, want := Sum64(p[3:200]), refXXH64(p[3:200]); got != want {
		t.Errorf("Sum64 of p[3:200] = %016x, reference %016x", got, want)
	}
}

func TestSum64DoesNotAllocate(t *testing.T) {
	p := make([]byte, 1000)
	if allocs := testing.AllocsPerRun(10, func() { sink64 = Sum64(p) }); allocs != 0 {
		t.Errorf("Sum64 allocated %v times per call", allocs)
	}
}

var sink Hash

// The fold is a serial multiply chain: it bounds the v1 codecs, and
// Snapshot.Digest and grid.Digest, which still fold through it.
func BenchmarkFoldBytes(b *testing.B) {
	p := make([]byte, 1<<20)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		sink = New().Bytes(p)
	}
}

var sink64 uint64

// Sum64 seals the v2 images, over the same megabyte as BenchmarkFoldBytes.
func BenchmarkSum64(b *testing.B) {
	p := make([]byte, 1<<20)
	b.SetBytes(int64(len(p)))
	for b.Loop() {
		sink64 = Sum64(p)
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

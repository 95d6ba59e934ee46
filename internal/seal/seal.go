// Package seal holds the primitives the repo's sealed byte formats and
// digests share: the two digests, append-style little-endian encoders that
// build an image in a caller-owned []byte, and a bounds-checked cursor that
// decodes one.
//
// A sealed format's version picks its digest. Version 1 is FNV-1a
// (64-bit, Hash), one dependent multiply per byte: it seals the MLPSNAP1
// and MLPCKPT1 images the loaders still verify, and it is the fold behind
// Snapshot.Digest, grid.Digest and the transport's dial jitter. Version 2
// is XXH64 (Sum64), which folds 8-byte words in four independent lanes at
// over ten times FNV-1a's rate: models.Snapshot (MLPSNAP2) and
// internal/ckpt (MLPCKPT2) write it.
//
// Floats travel as their exact IEEE-754 bit patterns (NaN payloads, signed
// zeros and denormals survive), in bulk: one tight loop per slice, no
// reflection, no per-value interface boxing.
package seal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// FNV-1a constants (64-bit).
const (
	offset Hash = 14695981039346656037
	prime  Hash = 1099511628211
)

// Hash is a running FNV-1a state. The folding methods return the advanced
// state, so folds chain: seal.New().Str(name).Float64s(values).
type Hash uint64

// New returns the empty hash (the FNV offset basis).
func New() Hash { return offset }

// fold is the one byte loop behind Bytes and Str.
//
//mlperfvet:hotpath
func fold[T string | []byte](h Hash, p T) Hash {
	for i := 0; i < len(p); i++ {
		h = (h ^ Hash(p[i])) * prime
	}
	return h
}

// Bytes folds p.
func (h Hash) Bytes(p []byte) Hash { return fold(h, p) }

// Str folds the bytes of s (no length prefix).
func (h Hash) Str(s string) Hash { return fold(h, s) }

// Uint64 folds v as its eight little-endian bytes.
//
//mlperfvet:hotpath
func (h Hash) Uint64(v uint64) Hash {
	for s := 0; s < 64; s += 8 {
		h = (h ^ Hash(byte(v>>s))) * prime
	}
	return h
}

// Float64s folds the exact bit pattern of every element, each as eight
// little-endian bytes — the same state as Bytes over the encoded slice.
//
//mlperfvet:hotpath
func (h Hash) Float64s(f []float64) Hash {
	for _, v := range f {
		h = h.Uint64(math.Float64bits(v))
	}
	return h
}

// Hex renders the state as the fixed-width hex string the repo logs and
// compares digests in.
func (h Hash) Hex() string { return fmt.Sprintf("%016x", uint64(h)) }

// XXH64 primes.
const (
	xx1 uint64 = 11400714785074694791
	xx2 uint64 = 14029467366897019727
	xx3 uint64 = 1609587929392839161
	xx4 uint64 = 9650029242287828579
	xx5 uint64 = 2870177450012600261
)

// Sum64 returns the XXH64 digest of p with seed 0, as xxHash's
// specification defines it: 32-byte stripes fold into four independent
// lanes, so the multiplies overlap instead of chaining byte by byte.
//
//mlperfvet:hotpath
func Sum64(p []byte) uint64 {
	n := uint64(len(p))
	var h uint64
	if len(p) >= 32 {
		// The lane seeds xx1+xx2, xx2, 0 and -xx1, wrapped to 64 bits.
		v1, v2, v3, v4 := uint64(6983438078262162902), xx2, uint64(0), uint64(7046029288634856825)
		for ; len(p) >= 32; p = p[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(p[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(p[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(p[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(p[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^xxRound(0, v))*xx1 + xx4
		}
	} else {
		h = xx5
	}
	h += n
	for ; len(p) >= 8; p = p[8:] {
		h = bits.RotateLeft64(h^xxRound(0, binary.LittleEndian.Uint64(p)), 27)*xx1 + xx4
	}
	if len(p) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(p))*xx1, 23)*xx2 + xx3
		p = p[4:]
	}
	for _, b := range p {
		h = bits.RotateLeft64(h^uint64(b)*xx5, 11) * xx1
	}
	h ^= h >> 33
	h *= xx2
	h ^= h >> 29
	h *= xx3
	return h ^ h>>32
}

// xxRound folds one 8-byte word into a lane.
func xxRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*xx2, 31) * xx1
}

// AppendString appends s as a u32 length and its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// AppendFloat64s appends a u32 count and the bit pattern of every element
// of f, growing b at most once.
func AppendFloat64s(b []byte, f []float64) []byte {
	b = binary.LittleEndian.AppendUint32(slices.Grow(b, 4+8*len(f)), uint32(len(f)))
	n := len(b)
	b = b[:n+8*len(f)]
	PutFloat64s(b[n:], f)
	return b
}

// PutFloat64s writes the bit pattern of every element of f into dst, eight
// little-endian bytes each and no count; dst must hold 8·len(f) bytes.
//
//mlperfvet:hotpath
func PutFloat64s(dst []byte, f []float64) {
	for i, v := range f {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// GetFloat64s fills dst from the 8·len(dst) bytes PutFloat64s wrote.
//
//mlperfvet:hotpath
func GetFloat64s(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// Cursor decodes a byte image front to back. Every read is bounded by the
// bytes that remain, so a corrupt length field can never drive an
// allocation the input does not back; the first failure sticks (later
// reads return zero values) and is reported by Err.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Len returns the number of undecoded bytes.
func (c *Cursor) Len() int { return len(c.b) }

// Err returns the first decoding failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Take returns the next n bytes (aliasing the image), or nil once the
// cursor has failed or fewer than n remain.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = fmt.Errorf("truncated: want %d bytes, have %d", n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

// U8 decodes one byte.
func (c *Cursor) U8() uint8 {
	if b := c.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 decodes a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 decodes a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 decodes one float64 bit pattern.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Str decodes a string written by AppendString.
func (c *Cursor) Str() string { return string(c.Take(c.count(1))) }

// count decodes a u32 element count and checks that count elements of
// size bytes each still remain, so callers may allocate by it.
func (c *Cursor) count(size int) int {
	n := int(c.U32())
	if c.err == nil && (n < 0 || n > len(c.b)/size) {
		c.err = fmt.Errorf("truncated: count %d of %d-byte elements, have %d bytes", n, size, len(c.b))
	}
	if c.err != nil {
		return 0
	}
	return n
}

// Slice decodes a u32 element count and allocates that many zero elements
// for the caller to fill, nil for zero. minBytes is the least input one
// element occupies: a count the remaining bytes cannot back fails the
// cursor instead of allocating.
func Slice[T any](c *Cursor, minBytes int) []T {
	if n := c.count(minBytes); n > 0 {
		return make([]T, n)
	}
	return nil
}

// Float64s decodes a u32 count and that many float64 bit patterns.
func (c *Cursor) Float64s() []float64 {
	out := Slice[float64](c, 8)
	GetFloat64s(out, c.Take(8*len(out)))
	return out
}

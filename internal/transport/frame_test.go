package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// goldenFloats and goldenDataFrame are one data frame written down byte by
// byte: kind, the ring's gather stream tag, the payload size, the CRC-32C of
// the payload, then three float64s, a quiet NaN that carries a payload,
// negative zero and 1.5. Whatever encodes floats under appendFrame, these
// are the bytes a peer built from another commit expects on the wire.
var (
	goldenFloats    = []uint64{0x7ff8000000000001, 0x8000000000000000, 0x3ff8000000000000}
	goldenDataFrame = []byte{
		0x01,                   // frameData
		0x54, 0x47, 0x00, 0x00, // stream 0x4754, little-endian
		0x18, 0x00, 0x00, 0x00, // 24 payload bytes
		0xea, 0x6c, 0xc3, 0xd2, // CRC-32C (Castagnoli) 0xd2c36cea
		0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x7f,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,
	}
)

// TestGoldenDataFrame pins the wire format in both directions: the encoder
// produces the literal bytes, and a mesh fed the literal bytes by a raw
// connection delivers the three bit patterns.
func TestGoldenDataFrame(t *testing.T) {
	vals := make([]float64, len(goldenFloats))
	for i, b := range goldenFloats {
		vals[i] = math.Float64frombits(b)
	}
	if got := appendFrame(nil, frameData, streamGather, appendFloats(nil, vals)); !bytes.Equal(got, goldenDataFrame) {
		t.Fatalf("encoded frame\n% x\nwant\n% x", got, goldenDataFrame)
	}

	m, conn := fakePeerConn(t, TCPOptions{})
	if _, err := conn.Write(goldenDataFrame); err != nil {
		t.Fatal(err)
	}
	got, err := m.Recv(0, streamGather, make([]float64, len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(goldenFloats) {
		t.Fatalf("received %d floats, want %d", len(got), len(goldenFloats))
	}
	for i, v := range got {
		if math.Float64bits(v) != goldenFloats[i] {
			t.Fatalf("element %d: bits %016x, want %016x", i, math.Float64bits(v), goldenFloats[i])
		}
	}
}

// FuzzReadFrame feeds the frame decoder bytes a peer could send. It must not
// panic; it must not allocate more than the payload limit, whatever size a
// header declares; and a frame it accepts is exactly the bytes appendFrame
// writes for what it returned, so nothing malformed decodes to something
// valid. The seeds are one frame of every kind, then a truncated header, a
// truncated payload, a declared size over the limit, a size of 2^32−1, a
// flipped payload bit and a flipped CRC bit.
func FuzzReadFrame(f *testing.F) {
	const maxPayload = 1 << 10
	payload := appendFloats(nil, []float64{1, math.Copysign(0, -1), math.NaN()})
	for kind := frameData; kind <= frameResult; kind++ {
		f.Add(appendFrame(nil, kind, uint32(kind)<<8, payload))
	}
	whole := appendFrame(nil, frameData, streamReduce, payload)
	f.Add(whole[:frameHeaderLen-1])
	f.Add(whole[:len(whole)-1])
	f.Add(appendFrame(nil, frameData, 1, make([]byte, maxPayload+1)))
	huge := bytes.Clone(whole)
	binary.LittleEndian.PutUint32(huge[5:9], math.MaxUint32)
	f.Add(huge)
	badPayload := bytes.Clone(whole)
	badPayload[len(badPayload)-1] ^= 1
	f.Add(badPayload)
	badCRC := bytes.Clone(whole)
	badCRC[9] ^= 1
	f.Add(badCRC)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, stream, payload, scratch, err := readFrame(bytes.NewReader(data), nil, maxPayload)
		if cap(scratch) > maxPayload {
			t.Fatalf("decoder holds %d bytes for a %d-byte input, limit %d", cap(scratch), len(data), maxPayload)
		}
		if err != nil {
			return
		}
		if again := appendFrame(nil, kind, stream, payload); !bytes.HasPrefix(data, again) {
			t.Fatalf("accepted\n% x\nwhich re-encodes as\n% x", data[:min(len(data), len(again))], again)
		}
	})
}

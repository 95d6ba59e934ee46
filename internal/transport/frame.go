package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/seal"
)

// Wire format: every message is one frame,
//
//	kind   uint8   — frame kind (data vs. the rendezvous control frames)
//	stream uint32  — lane tag (data) or 0 (control)
//	size   uint32  — payload byte count
//	crc    uint32  — CRC-32C (Castagnoli) of the payload
//	payload [size]byte
//
// all integers little-endian. Data payloads are packed little-endian
// float64s (size % 8 == 0); control payloads are JSON. The fixed header
// makes partial reads a non-issue (io.ReadFull) and the explicit size makes
// oversized-frame rejection a header-time check, before any allocation.
const frameHeaderLen = 13

// Frame kinds. Data frames carry engine traffic between mesh peers; the
// rest are rendezvous control frames between workers and the coordinator.
const (
	frameData byte = iota + 1
	frameHello
	frameJoin
	frameTable
	frameHeartbeat
	frameDown
	frameBarrier
	frameBarrierOK
	frameResult
)

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends a full frame (header + payload) to dst and returns
// the extended slice — the single-write form connection writers use so a
// frame is one TCP segment train under one deadline.
func appendFrame(dst []byte, kind byte, stream uint32, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], stream)
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[9:13], crc32.Checksum(payload, crcTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrame reads one frame from r, reusing scratch for the header and then
// the payload when they fit (a header array of its own would move to the
// heap through io.ReadFull's interface call, one object per frame). It
// returns the kind, stream, payload (aliasing the returned scratch), and
// the possibly-grown scratch. Frames whose declared size exceeds maxPayload
// are rejected at header time (ErrFrameTooLarge); payloads whose CRC
// mismatches the header are rejected with ErrChecksum.
func readFrame(r io.Reader, scratch []byte, maxPayload int) (kind byte, stream uint32, payload, scratch2 []byte, err error) {
	if cap(scratch) < frameHeaderLen {
		scratch = make([]byte, frameHeaderLen)
	}
	hdr := scratch[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, scratch, err
	}
	kind = hdr[0]
	stream = binary.LittleEndian.Uint32(hdr[1:5])
	size := binary.LittleEndian.Uint32(hdr[5:9])
	crc := binary.LittleEndian.Uint32(hdr[9:13])
	if int64(size) > int64(maxPayload) {
		return 0, 0, nil, scratch, fmt.Errorf("%w: %d bytes declared, limit %d", ErrFrameTooLarge, size, maxPayload)
	}
	if cap(scratch) < int(size) {
		scratch = make([]byte, size)
	}
	scratch = scratch[:size]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return 0, 0, nil, scratch, err
	}
	if got := crc32.Checksum(scratch, crcTable); got != crc {
		return 0, 0, nil, scratch, fmt.Errorf("%w: header %08x, payload %08x", ErrChecksum, crc, got)
	}
	return kind, stream, scratch, scratch, nil
}

// appendFloats appends data's little-endian float64 encoding to dst.
func appendFloats(dst []byte, data []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(data))[:n+8*len(data)]
	seal.PutFloat64s(dst[n:], data)
	return dst
}

package models

// Parameter snapshots: the training→serving handoff. A finished training
// run's parameters are captured into a Snapshot, serialized to a
// deterministic byte format, and restored into a fresh model for
// forward-only inference (internal/serve) or a resumed run. The format is
// fully deterministic — same parameters, same bytes — and self-verifying:
// a trailing seal is appended at write time and checked at read time, so a
// truncated or corrupted snapshot fails loudly instead of silently serving
// garbage weights. Version 2 (MLPSNAP2, the one the encoder writes) seals
// the image bytes with seal.Sum64; version 1 (MLPSNAP1, still loaded)
// sealed them with the semantic FNV-1a digest that Digest still reports.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/autograd"
	"repro/internal/seal"
)

// snapMagic identifies the snapshot files the encoder writes ("MLPSNAP" +
// format version 2); DecodeSnapshot also accepts version 1.
const snapMagic = "MLPSNAP2"

// snapMagicV1 identifies version-1 snapshots, sealed by the semantic
// FNV-1a digest.
const snapMagicV1 = "MLPSNAP1"

// SnapParam is one captured parameter: name, shape, and a copy of the
// float64 values.
type SnapParam struct {
	Name  string
	Shape []int
	Data  []float64
}

// Snapshot is a captured parameter state of one benchmark model.
type Snapshot struct {
	// Benchmark is the benchmark ID the parameters belong to.
	Benchmark string
	// Params holds the captured parameters in model parameter-list order.
	Params []SnapParam
}

// TakeSnapshot deep-copies the current values of params. The copy is
// decoupled from training: a snapshot taken at convergence stays at
// convergence even if the model keeps training.
func TakeSnapshot(benchmark string, params []*autograd.Param) *Snapshot {
	s := &Snapshot{Benchmark: benchmark, Params: make([]SnapParam, len(params))}
	for i, p := range params {
		s.Params[i] = SnapParam{
			Name:  p.Name,
			Shape: append([]int(nil), p.Value.Shape...),
			Data:  append([]float64(nil), p.Value.Data...),
		}
	}
	return s
}

// digest folds the snapshot's semantic content — benchmark ID, parameter
// names, shapes, and exact float64 bit patterns, in order, every length as
// a u64 — through FNV-1a. Two snapshots share a digest only if they are
// bit-identical. It is Digest's identity and the version-1 seal.
func (s *Snapshot) digest() seal.Hash {
	str := func(h seal.Hash, t string) seal.Hash { return h.Uint64(uint64(len(t))).Str(t) }
	h := str(seal.New(), s.Benchmark).Uint64(uint64(len(s.Params)))
	for _, p := range s.Params {
		h = str(h, p.Name).Uint64(uint64(len(p.Shape)))
		for _, d := range p.Shape {
			h = h.Uint64(uint64(d))
		}
		h = h.Uint64(uint64(len(p.Data))).Float64s(p.Data)
	}
	return h
}

// Digest renders the snapshot's FNV-1a content digest as a fixed-width hex
// string — the value cross-checked between trainer and server (and logged
// under mlog.KeySnapshotDigest).
func (s *Snapshot) Digest() string { return s.digest().Hex() }

// NumValues returns the total number of scalar parameter values captured.
func (s *Snapshot) NumValues() int {
	n := 0
	for _, p := range s.Params {
		n += len(p.Data)
	}
	return n
}

// AppendTo appends the snapshot to b in the deterministic binary format
// and returns the extended slice:
//
//	magic "MLPSNAP2"
//	benchmark: u32 length + bytes
//	u32 parameter count
//	per parameter: name (u32+bytes), u32 ndims, u32 dims..., u32 count,
//	               count × float64 bits (little-endian)
//	u64 seal.Sum64 of every image byte before it
//
// All integers are little-endian. The format contains no timestamps or
// addresses: identical parameters produce identical bytes. Version 1
// differs only in its magic's digit and its trailer, the semantic FNV-1a
// digest (as Digest). Given capacity for the image, AppendTo does not
// allocate.
func (s *Snapshot) AppendTo(b []byte) []byte {
	le := binary.LittleEndian
	start := len(b)
	b = append(b, snapMagic...)
	b = seal.AppendString(b, s.Benchmark)
	b = le.AppendUint32(b, uint32(len(s.Params)))
	for _, p := range s.Params {
		b = seal.AppendString(b, p.Name)
		b = le.AppendUint32(b, uint32(len(p.Shape)))
		for _, d := range p.Shape {
			b = le.AppendUint32(b, uint32(d))
		}
		b = seal.AppendFloat64s(b, p.Data)
	}
	return le.AppendUint64(b, seal.Sum64(b[start:]))
}

// imageLen is the exact length of the AppendTo image.
func (s *Snapshot) imageLen() int {
	n := len(snapMagic) + 4 + len(s.Benchmark) + 4 + 8
	for _, p := range s.Params {
		n += 4 + len(p.Name) + 4 + 4*len(p.Shape) + 4 + 8*len(p.Data)
	}
	return n
}

// Save writes the snapshot (the AppendTo image, built in one allocation)
// to w in one Write.
func (s *Snapshot) Save(w io.Writer) error {
	if _, err := w.Write(s.AppendTo(make([]byte, 0, s.imageLen()))); err != nil {
		return fmt.Errorf("models: snapshot save: %w", err)
	}
	return nil
}

// DecodeSnapshot parses the snapshot at the front of b, version 1 or 2,
// recomputes its seal, and rejects any mismatch (truncation, corruption,
// format drift). It returns the number of bytes the snapshot occupied; b
// may continue past it (a checkpoint embeds one). Every length field is
// bounded by the bytes that remain, so a corrupt count cannot drive an
// allocation the input does not back.
func DecodeSnapshot(b []byte) (*Snapshot, int, error) {
	c := seal.NewCursor(b)
	m := c.Take(len(snapMagic))
	v1 := m != nil && string(m) == snapMagicV1
	if m != nil && !v1 && string(m) != snapMagic {
		return nil, 0, fmt.Errorf("models: snapshot load: bad magic %q (want %q or %q)", m, snapMagicV1, snapMagic)
	}
	s := &Snapshot{Benchmark: c.Str()}
	// A parameter occupies at least its three u32 length fields.
	s.Params = seal.Slice[SnapParam](c, 12)
	for i := range s.Params {
		p := &s.Params[i]
		p.Name = c.Str()
		p.Shape = seal.Slice[int](c, 4)
		for d := range p.Shape {
			p.Shape[d] = int(c.U32())
		}
		p.Data = c.Float64s()
	}
	n := len(b) - c.Len()
	want := seal.Hash(c.U64())
	if err := c.Err(); err != nil {
		return nil, 0, fmt.Errorf("models: snapshot load: %w", err)
	}
	var got seal.Hash
	if v1 {
		got = s.digest()
	} else {
		got = seal.Hash(seal.Sum64(b[:n]))
	}
	if got != want {
		return nil, 0, fmt.Errorf("models: snapshot load: digest mismatch: content %s, trailer %s (corrupted or truncated snapshot)", got.Hex(), want.Hex())
	}
	return s, n + 8, nil
}

// decodeWholeSnapshot decodes the snapshot Save wrote when it fills raw
// exactly: a byte after the digest is refused.
func decodeWholeSnapshot(raw []byte) (*Snapshot, error) {
	s, n, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	if n != len(raw) {
		return nil, fmt.Errorf("models: snapshot load: %d trailing bytes after snapshot", len(raw)-n)
	}
	return s, nil
}

// SaveFile writes the snapshot to a file.
func (s *Snapshot) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("models: snapshot save: %w", err)
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshotFile reads a snapshot from a file, in one size-known read.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("models: snapshot load: %w", err)
	}
	return decodeWholeSnapshot(raw)
}

// Check reports whether the snapshot restores into params: snapshot entries
// match parameters positionally, and name and shape must agree at every
// position — a snapshot restores only into the architecture it was taken
// from. The error names the first mismatching parameter. Nothing is
// written.
func (s *Snapshot) Check(params []*autograd.Param) error {
	if len(params) != len(s.Params) {
		return fmt.Errorf("models: snapshot restore: model has %d parameters, snapshot %d", len(params), len(s.Params))
	}
	for i, p := range params {
		sp := s.Params[i]
		if p.Name != sp.Name {
			return fmt.Errorf("models: snapshot restore: parameter %d is %q, snapshot has %q", i, p.Name, sp.Name)
		}
		if !shapeEq(p.Value.Shape, sp.Shape) {
			return fmt.Errorf("models: snapshot restore: parameter %q has shape %v, snapshot %v", p.Name, p.Value.Shape, sp.Shape)
		}
		if len(sp.Data) != len(p.Value.Data) {
			return fmt.Errorf("models: snapshot restore: parameter %q has %d values, snapshot %d", p.Name, len(p.Value.Data), len(sp.Data))
		}
	}
	return nil
}

// Restore copies the snapshot's values into params once Check has passed
// for every entry, so a mismatch at any position leaves every parameter
// as it was. Gradients are untouched.
func (s *Snapshot) Restore(params []*autograd.Param) error {
	if err := s.Check(params); err != nil {
		return err
	}
	for i, p := range params {
		copy(p.Value.Data, s.Params[i].Data)
	}
	return nil
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

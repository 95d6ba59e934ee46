// Package ckpt implements full training checkpoints: the durable,
// digest-sealed form of a models.TrainState. Where models.Snapshot
// captures parameters alone (the training→serving handoff), a checkpoint
// additionally carries optimizer state (momenta and the ApplySchedule
// position), the mixed-precision trainer's loss-scale state, auxiliary
// RNG stream positions, the loader's permutation cursor, and the
// step/epoch counters — everything a resumed run needs to continue
// bit-identically to the uninterrupted run.
//
// The byte format is deterministic (same state, same bytes; no
// timestamps or addresses) and self-verifying: a trailing seal over every
// preceding byte is written at save time and checked BEFORE parsing at
// load time, so a truncated or corrupted checkpoint fails loudly — and
// cannot drive allocations from unverified length fields. The magic's
// last digit is the format version, and the version picks the seal: the
// encoder writes version 2 (MLPCKPT2, seal.Sum64 over the image, an
// MLPSNAP2 snapshot embedded), and the loader also verifies version 1
// (MLPCKPT1, FNV-1a, an MLPSNAP1 snapshot embedded).
//
// Files are written atomically (temp file + fsync + rename within the
// directory + directory fsync), so a crash mid-write leaves at worst a
// stale temp file, never a half-written checkpoint under a valid name.
// A Writer splits a checkpoint in two: Write encodes and seals the image
// while its caller waits (the part that must see the state), and a
// goroutine persists it while training goes on. Durability is Flush's
// promise, not Write's. The Writer retains the newest keep checkpoints
// per rank, deletes older ones and sweeps that rank's stale temp files.
// Latest, LoadAt and LatestComplete first wait for this process's
// persists into their directory, then recover the resume point, skipping
// any file that fails its digest.
package ckpt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/seal"
	"repro/internal/tensor"
)

// magic identifies the checkpoint files Append writes ("MLPCKPT" + format
// version 2); magicV1 identifies the version-1 files decode still loads.
const (
	magic   = "MLPCKPT2"
	magicV1 = "MLPCKPT1"
)

// Stateful is implemented by workloads and engines whose full training
// state can round-trip through a checkpoint. internal/core's runner
// detects it by type assertion (like the Err/Params/Close capabilities);
// models.Recommendation and the internal/pipeline engine implement it.
type Stateful interface {
	CaptureTrainState() *models.TrainState
	RestoreTrainState(*models.TrainState) error
}

func byKey(a, b models.MetaEntry) int { return cmp.Compare(a.Key, b.Key) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendRNG(b []byte, s tensor.RNGState) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, s.State)
	b = le.AppendUint64(b, s.Inc)
	b = le.AppendUint64(b, math.Float64bits(s.Spare))
	return appendBool(b, s.HasSpare)
}

// Append appends st in the checkpoint format to b and returns the
// extended slice, whose last eight bytes are the seal: seal.Sum64 of every
// image byte before them. Identical states produce identical
// bytes. Given capacity for the image and Meta in key order (as SetMeta
// keeps it), Append does not allocate.
func Append(b []byte, st *models.TrainState) ([]byte, error) {
	if st == nil || st.Params == nil {
		return b, fmt.Errorf("ckpt: save of nil state or state without parameters")
	}
	le := binary.LittleEndian
	start := len(b)
	b = append(b, magic...)
	b = le.AppendUint64(b, uint64(st.Step))
	b = le.AppendUint64(b, uint64(st.Epoch))

	// Parameters: the embedded snapshot, byte-for-byte the Snapshot format
	// (it carries its own inner seal; the outer seal covers it too).
	b = st.Params.AppendTo(b)

	// Optimizer states.
	b = le.AppendUint32(b, uint32(len(st.Opts)))
	for _, o := range st.Opts {
		b = seal.AppendString(b, o.Kind)
		b = le.AppendUint64(b, math.Float64bits(o.LR))
		b = le.AppendUint64(b, uint64(o.T))
		b = le.AppendUint32(b, uint32(len(o.Slots)))
		for _, s := range o.Slots {
			b = seal.AppendFloat64s(b, s)
		}
	}

	// Mixed-precision position.
	b = appendBool(b, st.MP != nil)
	if mp := st.MP; mp != nil {
		b = le.AppendUint64(b, math.Float64bits(mp.Scale))
		b = le.AppendUint64(b, uint64(mp.Good))
		b = le.AppendUint64(b, mp.Steps)
		b = le.AppendUint64(b, mp.Skipped)
		b = le.AppendUint64(b, mp.Growths)
		b = le.AppendUint64(b, mp.Backoffs)
	}

	// Loader position.
	b = appendBool(b, st.Loader != nil)
	if ls := st.Loader; ls != nil {
		b = le.AppendUint32(b, uint32(len(ls.Order)))
		for _, i := range ls.Order {
			b = le.AppendUint32(b, uint32(i))
		}
		b = le.AppendUint32(b, uint32(ls.Pos))
		b = le.AppendUint32(b, uint32(ls.Epoch))
		b = appendRNG(b, ls.RNG)
	}

	// Auxiliary RNG streams.
	b = le.AppendUint32(b, uint32(len(st.RNGs)))
	for _, e := range st.RNGs {
		b = seal.AppendString(b, e.Label)
		b = appendRNG(b, e.State)
	}

	// Meta entries, in key order whatever order the slice was assembled in
	// (SetMeta keeps it sorted; anything else pays for a sorted copy).
	meta := st.Meta
	if !slices.IsSortedFunc(meta, byKey) {
		meta = slices.Clone(meta)
		slices.SortStableFunc(meta, byKey)
	}
	b = le.AppendUint32(b, uint32(len(meta)))
	for _, m := range meta {
		b = seal.AppendString(b, m.Key)
		b = seal.AppendString(b, m.Value)
	}

	return le.AppendUint64(b, seal.Sum64(b[start:])), nil
}

// sealOf reads the trailing seal of an Append image.
func sealOf(img []byte) seal.Hash {
	return seal.Hash(binary.LittleEndian.Uint64(img[len(img)-8:]))
}

// Save writes st in the checkpoint format, in one Write, and returns the
// content digest (the hex form of the trailing seal). Identical states
// produce identical bytes and digests.
func Save(w io.Writer, st *models.TrainState) (string, error) {
	img, err := Append(nil, st)
	if err != nil {
		return "", err
	}
	if _, err := w.Write(img); err != nil {
		return "", fmt.Errorf("ckpt: save: %w", err)
	}
	return sealOf(img).Hex(), nil
}

// Digest returns the content digest Save would seal st with, without
// writing anywhere.
func Digest(st *models.TrainState) (string, error) {
	return Save(io.Discard, st)
}

// readBool decodes a presence flag, rejecting the non-canonical values
// Append never writes (so an accepted image re-saves to the same bytes).
func readBool(c *seal.Cursor) (bool, error) {
	switch v := c.U8(); v {
	case 0, 1:
		return v == 1, nil
	default:
		return false, fmt.Errorf("ckpt: load: flag byte %d is neither 0 nor 1", v)
	}
}

func readRNG(c *seal.Cursor) (st tensor.RNGState, err error) {
	st = tensor.RNGState{State: c.U64(), Inc: c.U64(), Spare: c.F64()}
	st.HasSpare, err = readBool(c)
	return st, err
}

// decode parses a whole checkpoint image, version 1 or 2: seal first,
// then content straight from the verified bytes.
func decode(raw []byte) (*models.TrainState, error) {
	if len(raw) < len(magic)+8 {
		return nil, fmt.Errorf("ckpt: load: %d bytes is no checkpoint", len(raw))
	}
	body := raw[:len(raw)-8]
	var got seal.Hash
	switch m := string(raw[:len(magic)]); m {
	case magic:
		got = seal.Hash(seal.Sum64(body))
	case magicV1:
		got = seal.New().Bytes(body)
	default:
		return nil, fmt.Errorf("ckpt: load: bad magic %q (want %q or %q)", m, magicV1, magic)
	}
	if want := sealOf(raw); got != want {
		return nil, fmt.Errorf("ckpt: load: digest mismatch: content %s, trailer %s (corrupted or truncated checkpoint)", got.Hex(), want.Hex())
	}

	c := seal.NewCursor(body[len(magic):])
	st := &models.TrainState{Step: int(c.U64()), Epoch: int(c.U64())}

	params := body[len(body)-c.Len():]
	snap, n, err := models.DecodeSnapshot(params)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load: embedded snapshot: %w", err)
	}
	// Each version embeds its own snapshot version, so a loaded image
	// re-saves canonically. Both magics are eight bytes ending in the
	// version digit, and DecodeSnapshot has read the snapshot's.
	if cv, sv := raw[len(magic)-1], params[len(magic)-1]; cv != sv {
		return nil, fmt.Errorf("ckpt: load: a version-%c checkpoint embeds a version-%c snapshot", cv, sv)
	}
	st.Params = snap
	c.Take(n)

	// The least an element occupies bounds each allocation: an optimizer
	// state 24 bytes, a slot 4, an RNG stream 29, a meta entry 8.
	st.Opts = seal.Slice[opt.State](c, 24)
	for i := range st.Opts {
		o := &st.Opts[i]
		o.Kind, o.LR, o.T = c.Str(), c.F64(), int(c.U64())
		o.Slots = seal.Slice[[]float64](c, 4)
		for s := range o.Slots {
			o.Slots[s] = c.Float64s()
		}
	}

	if has, err := readBool(c); err != nil {
		return nil, err
	} else if has {
		st.MP = &precision.MPState{
			Scale: c.F64(), Good: int(c.U64()),
			Steps: c.U64(), Skipped: c.U64(), Growths: c.U64(), Backoffs: c.U64(),
		}
	}

	if has, err := readBool(c); err != nil {
		return nil, err
	} else if has {
		ls := &data.LoaderState{Order: seal.Slice[int](c, 4)}
		for i := range ls.Order {
			ls.Order[i] = int(c.U32())
		}
		ls.Pos, ls.Epoch = int(c.U32()), int(c.U32())
		if ls.RNG, err = readRNG(c); err != nil {
			return nil, err
		}
		st.Loader = ls
	}

	st.RNGs = seal.Slice[models.RNGEntry](c, 29)
	for i := range st.RNGs {
		st.RNGs[i].Label = c.Str()
		if st.RNGs[i].State, err = readRNG(c); err != nil {
			return nil, err
		}
	}

	st.Meta = seal.Slice[models.MetaEntry](c, 8)
	for i := range st.Meta {
		st.Meta[i] = models.MetaEntry{Key: c.Str(), Value: c.Str()}
	}

	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: load: %w", err)
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("ckpt: load: %d trailing bytes after checkpoint content", c.Len())
	}
	if !slices.IsSortedFunc(st.Meta, byKey) {
		return nil, fmt.Errorf("ckpt: load: meta keys out of order")
	}
	return st, nil
}

// fileName is the canonical checkpoint file name for (step, rank).
func fileName(step, rank int) string {
	return fmt.Sprintf("ckpt-%09d-r%03d.mlpckpt", step, rank)
}

// tmpInfix separates a canonical name from the random suffix of the temp
// file Write stages it in.
const tmpInfix = ".tmp-"

// parseName inverts fileName, accepting exactly the names it produces:
// Sscanf alone ignores trailing input, so a stale temp file, a suffixed
// copy or a negative step would otherwise pass for a checkpoint.
func parseName(name string) (step, rank int, ok bool) {
	var s, r int
	if n, err := fmt.Sscanf(name, "ckpt-%d-r%d.mlpckpt", &s, &r); n != 2 || err != nil {
		return 0, 0, false
	}
	if s < 0 || r < 0 || fileName(s, r) != name {
		return 0, 0, false
	}
	return s, r, true
}

// Writer manages a checkpoint directory: atomic writes plus retention. At
// most one persist is in flight per Writer: Write waits for the previous
// one before it encodes into the one reused buffer, and Flush waits for
// it. A Writer must not be shared by concurrent callers (each rank owns
// one).
type Writer struct {
	dir  string
	keep int
	buf  []byte
	done chan struct{} // closed when the in-flight persist has landed; nil when none is
	err  error         // a failed persist's error, returned from then on
}

// DefaultKeep is the retention depth a zero keep selects.
const DefaultKeep = 3

// NewWriter prepares a checkpoint directory (created if absent). keep is
// the number of newest checkpoints retained per rank (<= 0 selects
// DefaultKeep).
func NewWriter(dir string, keep int) (*Writer, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty checkpoint directory")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Writer{dir: filepath.Clean(dir), keep: keep}, nil
}

// Write encodes st for rank into the Writer's buffer, seals it, starts
// persisting it, and returns the final path and the sealed content
// digest. The digest is final when Write returns; the file is not.
//
// Durability contract: the persist hands the image to a temp file in one
// write, fsyncs it, renames it into place, fsyncs the directory and then
// applies retention for rank, so a crash at any point leaves at worst a
// stale temp file (swept by a later persist of that rank), never a
// half-written checkpoint under a valid name. When Flush returns nil,
// every earlier Write's bytes and name survive a power loss. Write first
// waits for the previous persist. A failure anywhere in a persist, the
// directory sync included, is returned by Flush and by every later Write,
// which then writes nothing.
func (w *Writer) Write(st *models.TrainState, rank int) (path, digest string, err error) {
	if err := w.Flush(); err != nil {
		return "", "", err
	}
	if w.buf, err = Append(w.buf[:0], st); err != nil {
		return "", "", err
	}
	name := fileName(st.Step, rank)
	final := filepath.Join(w.dir, name)
	w.done = make(chan struct{})
	inflight.add(w.dir, w.done)
	go w.persist(name, final, rank, w.done)
	return final, sealOf(w.buf).Hex(), nil
}

// Flush waits for the in-flight persist, if any, and returns the Writer's
// persist error: nil means every earlier Write is durable.
func (w *Writer) Flush() error {
	if w.done != nil {
		<-w.done
		w.done = nil
	}
	return w.err
}

// persist is Write's second half, run on its own goroutine: it puts w.buf
// on disk under final, records a failure in w.err, and lands done.
func (w *Writer) persist(name, final string, rank int, done chan struct{}) {
	defer inflight.land(w.dir, done)
	tmp, err := os.CreateTemp(w.dir, name+tmpInfix+"*")
	if err == nil {
		_, err = tmp.Write(w.buf)
		if err == nil {
			err = tmp.Sync()
		}
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp.Name(), final)
		}
		if err != nil {
			os.Remove(tmp.Name())
		}
	}
	if err == nil {
		err = syncDir(w.dir)
	}
	if err != nil {
		w.err = fmt.Errorf("ckpt: write %s: %w", final, err)
		return
	}
	w.retain(rank)
}

// persists is this process's persists in flight, keyed by cleaned
// directory; a directory's entry goes when its last persist lands.
type persists struct {
	mu   sync.Mutex
	dirs map[string][]chan struct{}
}

var inflight = persists{dirs: map[string][]chan struct{}{}}

func (p *persists) add(dir string, done chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dirs[dir] = append(p.dirs[dir], done)
}

// land removes done from dir's persists in flight, then closes it.
func (p *persists) land(dir string, done chan struct{}) {
	p.mu.Lock()
	left := slices.DeleteFunc(p.dirs[dir], func(c chan struct{}) bool { return c == done })
	if len(left) == 0 {
		delete(p.dirs, dir)
	} else {
		p.dirs[dir] = left
	}
	p.mu.Unlock()
	close(done)
}

// wait returns once every persist in flight into dir when it was called
// has landed, so a reader sees every Write this process made there.
func (p *persists) wait(dir string) {
	p.mu.Lock()
	pending := slices.Clone(p.dirs[filepath.Clean(dir)])
	p.mu.Unlock()
	for _, done := range pending {
		<-done
	}
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// retain deletes rank's checkpoints beyond the newest keep, and the stale
// temp files a crashed persist of that rank left behind (it runs at the
// end of a persist, a Writer runs one persist at a time, and a rank has
// one Writer, so none of that rank's is in flight now).
// Best-effort: retention failures never fail the write that triggered them.
func (w *Writer) retain(rank int) {
	steps, stale, err := scanRank(w.dir, rank)
	if err != nil {
		return
	}
	for _, name := range stale {
		os.Remove(filepath.Join(w.dir, name))
	}
	for _, s := range steps[:max(0, len(steps)-w.keep)] {
		os.Remove(filepath.Join(w.dir, fileName(s, rank)))
	}
}

// scanRank lists dir once: the steps with a checkpoint file for rank,
// ascending, and the names of rank's stale temp files.
func scanRank(dir string, rank int) (steps []int, stale []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	for _, e := range ents {
		base, _, isTmp := strings.Cut(e.Name(), tmpInfix)
		s, r, ok := parseName(base)
		switch {
		case !ok || r != rank:
		case isTmp:
			stale = append(stale, e.Name())
		default:
			steps = append(steps, s)
		}
	}
	sort.Ints(steps)
	return steps, stale, nil
}

// rankSteps lists the steps with a checkpoint file for rank, ascending.
func rankSteps(dir string, rank int) ([]int, error) {
	steps, _, err := scanRank(dir, rank)
	return steps, err
}

// LoadAt loads the checkpoint for (step, rank) from dir, in one
// size-known read.
func LoadAt(dir string, step, rank int) (*models.TrainState, error) {
	inflight.wait(dir)
	raw, err := os.ReadFile(filepath.Join(dir, fileName(step, rank)))
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return decode(raw)
}

// Latest returns rank's newest valid checkpoint in dir, or (nil, "", nil)
// when none exists. Files that fail their digest are skipped (a crash may
// have raced retention or corrupted the newest file; the one before it is
// still a correct resume point).
func Latest(dir string, rank int) (*models.TrainState, string, error) {
	inflight.wait(dir)
	steps, err := rankSteps(dir, rank)
	if errors.Is(err, os.ErrNotExist) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		st, err := LoadAt(dir, steps[i], rank)
		if err == nil {
			return st, filepath.Join(dir, fileName(steps[i], rank)), nil
		}
	}
	return nil, "", nil
}

// LatestComplete returns the highest step at which EVERY rank of a
// world-sized grid has a valid checkpoint in dir — the grid supervisor's
// resume point, where all ranks restart in lockstep. ok is false when no
// complete, valid set exists. Determinism: the scan reads a quiescent
// directory (the failed generation's processes are dead before the
// supervisor respawns), so every worker computes the same step.
func LatestComplete(dir string, world int) (step int, ok bool, err error) {
	inflight.wait(dir)
	steps, err := rankSteps(dir, 0)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		complete := true
		for r := 0; r < world && complete; r++ {
			if _, err := LoadAt(dir, s, r); err != nil {
				complete = false
			}
		}
		if complete {
			return s, true, nil
		}
	}
	return 0, false, nil
}

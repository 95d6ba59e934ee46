// Package data implements the input pipeline machinery shared by all
// benchmarks: seeded epoch shuffling, minibatching, and sharding for data
// parallelism. The §3.2.1 boundary between untimed one-time reformatting
// and timed per-epoch augmentation is where the datasets put their work:
// generation happens once per process, augmentation inside batch assembly.
package data

import (
	"fmt"

	"repro/internal/tensor"
)

// Loader yields shuffled minibatch index sets over a dataset of N examples.
// Each epoch is a fresh permutation drawn from the loader's RNG, so data
// traversal order is reproducible per seed — one of the stochasticity
// sources §2.2.3 identifies.
type Loader struct {
	N     int
	Batch int
	// DropLast discards the trailing short batch of each epoch so every
	// emitted batch has exactly Batch examples. It requires Batch <= N
	// (otherwise an epoch would contain no batches at all); Next and
	// StepsPerEpoch reject the degenerate configuration.
	DropLast bool

	rng   *tensor.RNG
	order []int
	batch []int
	pos   int
	epoch int
}

// NewLoader builds a loader over n examples with the given batch size.
func NewLoader(n, batch int, rng *tensor.RNG) *Loader {
	if n <= 0 || batch <= 0 {
		panic(fmt.Sprintf("data: invalid loader n=%d batch=%d", n, batch))
	}
	l := &Loader{N: n, Batch: batch, rng: rng}
	l.reshuffle()
	return l
}

func (l *Loader) reshuffle() {
	// PermInto draws the same stream as Perm but reuses the backing array,
	// so per-epoch reshuffles are allocation-free after the first.
	l.order = l.rng.PermInto(l.order, l.N)
	l.pos = 0
}

// checkDropLast rejects the degenerate DropLast configuration in which an
// epoch would contain zero batches. Without this guard Next used to emit
// short batches anyway (violating the DropLast contract), StepsPerEpoch
// returned 0, and the epoch counter incremented before any pass completed.
func (l *Loader) checkDropLast() {
	if l.DropLast && l.Batch > l.N {
		panic(fmt.Sprintf("data: DropLast with batch %d > n %d yields zero batches per epoch", l.Batch, l.N))
	}
}

// StepsPerEpoch returns the number of batches in one epoch.
func (l *Loader) StepsPerEpoch() int {
	if l.DropLast {
		l.checkDropLast()
		return l.N / l.Batch
	}
	return (l.N + l.Batch - 1) / l.Batch
}

// Next returns the next minibatch of example indices and whether this batch
// begins a new epoch. The returned slice is owned by the loader and only
// valid until the following Next call — steady-state training loops consume
// it immediately, which keeps the hot path allocation-free.
func (l *Loader) Next() (idx []int, newEpoch bool) {
	l.checkDropLast()
	if l.pos >= l.N || (l.DropLast && l.pos+l.Batch > l.N) {
		l.epoch++
		l.reshuffle()
	}
	newEpoch = l.pos == 0
	end := l.pos + l.Batch
	if end > l.N {
		end = l.N
	}
	l.batch = append(l.batch[:0], l.order[l.pos:end]...)
	l.pos = end
	return l.batch, newEpoch
}

// LoaderState is an exported snapshot of a loader's traversal position —
// the current epoch permutation, the cursor within it, the epoch counter,
// and the shuffling RNG's stream position. A checkpoint (internal/ckpt)
// persists it so a resumed run draws exactly the batches the uninterrupted
// run would have.
type LoaderState struct {
	Order []int
	Pos   int
	Epoch int
	RNG   tensor.RNGState
}

// State captures the loader's traversal position. The returned Order is a
// copy, decoupled from further Next calls.
func (l *Loader) State() LoaderState {
	return LoaderState{
		Order: append([]int(nil), l.order...),
		Pos:   l.pos,
		Epoch: l.epoch,
		RNG:   l.rng.State(),
	}
}

// SetState restores a position captured by State. The loader's subsequent
// batches — including every future epoch's reshuffle — are bit-identical
// to the capturing loader's.
func (l *Loader) SetState(st LoaderState) error {
	if len(st.Order) != l.N {
		return fmt.Errorf("data: loader state has %d order entries, loader has N=%d", len(st.Order), l.N)
	}
	if st.Pos < 0 || st.Pos > l.N {
		return fmt.Errorf("data: loader state position %d outside [0, %d]", st.Pos, l.N)
	}
	l.order = append(l.order[:0], st.Order...)
	l.pos = st.Pos
	l.epoch = st.Epoch
	l.rng.SetState(st.RNG)
	return nil
}

// Shard splits a batch across data-parallel workers: worker w of k receives
// the contiguous slice [w·len/k, (w+1)·len/k). All elements are assigned to
// exactly one shard.
func Shard(idx []int, worker, workers int) []int {
	if workers <= 0 || worker < 0 || worker >= workers {
		panic(fmt.Sprintf("data: invalid shard %d of %d", worker, workers))
	}
	lo := worker * len(idx) / workers
	hi := (worker + 1) * len(idx) / workers
	return idx[lo:hi]
}

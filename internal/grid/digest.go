package grid

import (
	"repro/internal/autograd"
	"repro/internal/seal"
)

// Digest is a rolling FNV-1a hash over a parameter trajectory: each Add
// folds in the exact float64 bit patterns of every parameter element, so
// two trajectories share a digest only if every parameter of every hashed
// step is bit-identical. Workers report their digest through the rendezvous
// (transport.WorkerResult.Digest); comparing it against Reference's is the
// cross-process form of the engines' bit-identity tests.
type Digest struct {
	h seal.Hash
	n int
}

// NewDigest returns an empty trajectory digest.
func NewDigest() *Digest { return &Digest{h: seal.New()} }

// Add folds one step's parameter state into the digest, in parameter-list
// then element order.
func (d *Digest) Add(params []*autograd.Param) {
	for _, p := range params {
		d.h = d.h.Float64s(p.Value.Data)
	}
	d.n++
}

// State exposes the accumulator (rolling hash, step count) so a worker can
// checkpoint the digest alongside the engine state; SetState restores it.
// A resumed worker that restores both the engine and the digest to the same
// step continues the exact rolling hash of the uninterrupted run.
func (d *Digest) State() (h uint64, n int) { return uint64(d.h), d.n }

// SetState restores an accumulator captured by State.
func (d *Digest) SetState(h uint64, n int) { d.h, d.n = seal.Hash(h), n }

// Sum renders the digest as a fixed-width hex string.
func (d *Digest) Sum() string { return d.h.Hex() }

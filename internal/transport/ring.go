package transport

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/tensor"
)

// Ring stream tags. The ring's two legs multiplex over each member pair's
// link independently of the pipeline engine's boundary streams (whose rank
// pairs differ anyway: ring links connect replicas of one stage, boundary
// links connect adjacent stages of one replica).
const (
	streamReduce uint32 = 0x5244 // "RD": reduce-scatter leg
	streamGather uint32 = 0x4754 // "GT": all-gather leg
)

// Ring is a reusable K-member chunked ring all-reduce over rows of
// flattened gradient contributions — the collective the training engine
// (internal/pipeline) runs once per stage group.
//
// A reduction round sums a set of rows (each flatLen long) in ascending row
// order into every member's aggregate buffer. Member w contributes the
// contiguous row range it owns; the reduce-scatter leg pipelines chunks up
// the ring 0 → 1 → … → K−1 with each member adding its rows in ascending
// order, and the all-gather leg circulates the finished chunks K−1 → 0 → …
// → K−2. Because each chunk's partial sums accumulate strictly in ascending
// row order, the result is bit-identical to a serial ascending sum — the
// determinism contract the engine's tests assert.
//
// Rows are summed with tensor.AddVec over each chunk's [lo:hi) sub-slices,
// four float64 lanes to an add on amd64; a lane-wise add is the scalar add
// of each element and a chunk's rows are still added in ascending order, so
// the contract holds bit for bit whatever the chunk offsets are. A member
// receives a finished chunk straight into its aggregate, through
// agg[lo:hi:hi]: the capped slice is what keeps a frame longer than the
// chunk out of the elements after it (recvChunk).
//
// The legs run over Mesh endpoints the caller supplies (NewRingOver): the
// engine passes Sub views of its one mesh, a LocalFabric's endpoints in
// process and the injected endpoint across processes, so one constructor
// serves both. The ring never closes an endpoint. Message copies preserve
// float64 bits, so the backend never affects results. All scratch state is
// allocated once, and warm rounds over the in-process fabric perform zero
// heap allocations.
type Ring struct {
	members int
	chunks  int
	flatLen int

	// eps[w] is member w's mesh endpoint (nil for members hosted by other
	// processes — shard mode has exactly one non-nil entry). A
	// single-member ring needs no endpoints at all.
	eps []Mesh
	// scratch[w] is member w's traveling-chunk buffer (max chunk size);
	// the last member has none, it sums in its aggregate.
	scratch [][]float64

	buffers *arena.Arena
}

// NewRingOver builds a ring whose members communicate over the given mesh
// endpoints: eps[w] is member w's endpoint, nil for members hosted
// elsewhere (multi-process shard mode), and each endpoint's World must equal
// len(eps). chunks is the pipelining grain, clamped to [1, flatLen] (below 1
// selects the member count); it never affects results. Scratch buffers come
// from the arena. A single-member ring degenerates to a serial
// ascending-row sum and uses no endpoint.
func NewRingOver(eps []Mesh, chunks, flatLen int, buffers *arena.Arena) *Ring {
	members := len(eps)
	if members < 1 {
		panic(fmt.Sprintf("transport: NewRingOver members %d < 1", members))
	}
	for w, ep := range eps {
		if ep != nil && ep.World() != members {
			panic(fmt.Sprintf("transport: NewRingOver endpoint %d has world %d, want %d", w, ep.World(), members))
		}
	}
	if flatLen < 1 {
		panic(fmt.Sprintf("transport: NewRingOver flatLen %d < 1", flatLen))
	}
	if chunks < 1 {
		chunks = members
	}
	if chunks > flatLen {
		chunks = flatLen
	}
	r := &Ring{members: members, chunks: chunks, flatLen: flatLen, eps: eps, buffers: buffers}
	if members > 1 {
		maxChunk := 0
		for c := 0; c < chunks; c++ {
			lo, hi := r.ChunkRange(c)
			if hi-lo > maxChunk {
				maxChunk = hi - lo
			}
		}
		r.scratch = make([][]float64, members)
		for w := range r.scratch {
			if eps[w] != nil && w < members-1 {
				r.scratch[w] = buffers.Get(maxChunk) //mlperfvet:owns — ring state, released in Close
			}
		}
	}
	return r
}

// ChunkRange returns chunk c's half-open range in the flat vector, using
// the same contiguous-split arithmetic as data.Shard.
func (r *Ring) ChunkRange(c int) (lo, hi int) {
	return c * r.flatLen / r.chunks, (c + 1) * r.flatLen / r.chunks
}

// RoundMessages returns the number of point-to-point chunk transfers one
// full reduction round performs (across all members).
func (r *Ring) RoundMessages() int { return 2 * (r.members - 1) * r.chunks }

// RoundBytes returns the total payload one full reduction round moves over
// ring links (8 bytes per float64 element).
func (r *Ring) RoundBytes() int { return 2 * (r.members - 1) * r.flatLen * 8 }

// AllReduce executes member w's part of one reduction round: rows[rlo:rhi)
// are the rows member w contributes, and on return agg holds the ascending-
// order sum of ALL rows (identical bits at every member). Every member must
// run AllReduce concurrently once per round — as goroutines in-process, as
// OS processes over a TCP mesh; rows is member-local state whose row range
// [rlo, rhi) must be fully written before the call (other rows may be nil).
//
// A transport failure surfaces as a typed *PeerError; the caller
// should then Abort its membership so ring neighbors blocked on it fail
// fast instead of deadlocking the round.
//
//mlperfvet:hotpath
func (r *Ring) AllReduce(w int, rows [][]float64, rlo, rhi int, agg []float64) error {
	if r.members == 1 {
		// Degenerate ring: same ascending-row accumulation order as the
		// multi-member path, chunk by chunk.
		for c := 0; c < r.chunks; c++ {
			lo, hi := r.ChunkRange(c)
			sum := agg[lo:hi]
			clear(sum)
			for _, row := range rows {
				tensor.AddVec(sum, row[lo:hi])
			}
		}
		return nil
	}

	K := r.members
	ep := r.eps[w]
	// Reduce-scatter leg: chunk c starts as a zero buffer at member 0 and
	// flows up the ring; each member adds its owned rows in ascending
	// order, so the finished chunk at member K-1 is the ascending-row sum —
	// the fixed reduction order the determinism contract requires. Sends
	// never block on the receiver, so the chunks pipeline freely. Members
	// below K-1 hold the traveling chunk in scratch; member K-1 finishes
	// it, so it receives into its aggregate and sums there.
	for c := 0; c < r.chunks; c++ {
		lo, hi := r.ChunkRange(c)
		buf := agg[lo:hi:hi]
		if w < K-1 {
			buf = r.scratch[w][:hi-lo]
		}
		if w == 0 {
			clear(buf)
		} else if err := recvChunk(ep, w-1, streamReduce, c, buf); err != nil {
			return err
		}
		for m := rlo; m < rhi; m++ {
			tensor.AddVec(buf, rows[m][lo:hi])
		}
		to, stream := w+1, streamReduce
		if w == K-1 {
			// Start the all-gather leg at member 0.
			to, stream = 0, streamGather
		}
		if err := ep.Send(to, stream, buf); err != nil {
			return err
		}
	}
	// All-gather leg: fully-reduced chunks flow K-1 -> 0 -> ... -> K-2;
	// every member receives each chunk where it belongs in its aggregate
	// and forwards it from there.
	if w < K-1 {
		prev := w - 1
		if prev < 0 {
			prev = K - 1
		}
		for c := 0; c < r.chunks; c++ {
			lo, hi := r.ChunkRange(c)
			if err := recvChunk(ep, prev, streamGather, c, agg[lo:hi:hi]); err != nil {
				return err
			}
			if w+1 < K-1 {
				if err := ep.Send(w+1, streamGather, agg[lo:hi]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// recvChunk receives chunk c of a ring leg into buf, whose length is the
// chunk's and whose capacity must be no more: Recv copies a frame into a
// buffer it fits and allocates for one it does not, so a frame longer than
// the chunk lands in a fresh slice and is refused here as ErrBadFrame
// without a write past buf. That is why the legs pass agg[lo:hi:hi].
func recvChunk(ep Mesh, from int, stream uint32, c int, buf []float64) error {
	got, err := ep.Recv(from, stream, buf)
	if err != nil {
		return err
	}
	if len(got) != len(buf) {
		leg := "reduce"
		if stream == streamGather {
			leg = "gather"
		}
		return fmt.Errorf("transport: ring %s chunk %d carried %d elements, want %d: %w", leg, c, len(got), len(buf), ErrBadFrame)
	}
	return nil
}

// Abort withdraws member w from the ring after a failure: its endpoint's
// own rank is marked down with the given cause, so neighbors blocked on
// messages from w fail with a typed error instead of deadlocking, and the
// failure cascades around the ring until every member has returned.
func (r *Ring) Abort(w int, cause error) {
	if r.eps == nil || r.eps[w] == nil {
		return
	}
	ep := r.eps[w]
	ep.Fail(ep.Rank(), cause)
}

// Close returns the ring's scratch buffers to its arena; the endpoints are
// their owner's to close. The ring must not be used afterwards; Close is
// idempotent.
func (r *Ring) Close() {
	for _, buf := range r.scratch {
		if buf != nil {
			r.buffers.Put(buf)
		}
	}
	r.scratch = nil
	r.eps = nil
}

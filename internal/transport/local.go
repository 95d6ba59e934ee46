package transport

import (
	"fmt"
	"time"

	"repro/internal/arena"
)

// LocalFabric is the in-process channel backend: a world of Mesh endpoints
// connected by ordered pooled queues. It is the bit-identity oracle backend
// — Send copies the payload, Recv copies it out, and float64 copies
// preserve bits — and the fabric the engine builds, one for its whole S·K
// grid, when no external Mesh is injected. Warm Send/Recv pairs perform
// zero heap allocations (pooled message buffers, cached queue lookups),
// preserving the engine's steady-state allocation contract.
//
// Its lanes are the ones whose consumers poll: a Recv that finds its lane
// empty yields the processor a bounded number of times before it parks
// (YieldPoll), with or without a Straggler timeout, because both ends are
// goroutines of one process and the frame it waits for is tens of µs away.
// A TCPMesh lane never polls: the choice belongs to the backend that built
// the lane table, and there is nothing to set.
type LocalFabric struct {
	// Straggler, when positive, bounds every Recv wait; expiry surfaces
	// ErrStraggler without marking the peer down. Set before first use.
	Straggler time.Duration

	lanes *laneTable
	eps   []*localMesh
}

// NewLocalFabric builds a world-member fabric drawing message buffers from
// pool (nil gives the fabric a private arena).
func NewLocalFabric(world int, pool *arena.Arena) *LocalFabric {
	if world < 1 {
		panic(fmt.Sprintf("transport: NewLocalFabric world %d < 1", world))
	}
	f := &LocalFabric{lanes: newLaneTable(world, pool, true), eps: make([]*localMesh, world)}
	for r := range f.eps {
		f.eps[r] = &localMesh{f: f, rank: r, cache: make(map[linkKey]*queue)}
	}
	return f
}

// Endpoint returns rank's Mesh. Each endpoint's Send/Recv must be driven by
// a single goroutine (the usual engine-runtime ownership).
func (f *LocalFabric) Endpoint(rank int) Mesh { return f.eps[rank] }

// localMesh is one member's view of a LocalFabric.
type localMesh struct {
	f    *LocalFabric
	rank int

	// cache holds the lanes this endpoint has looked up, so the steady-state
	// path never takes the table lock. It is touched only by the endpoint's
	// owning goroutine (the single-goroutine Send/Recv contract).
	cache map[linkKey]*queue
}

func (m *localMesh) Rank() int  { return m.rank }
func (m *localMesh) World() int { return len(m.f.eps) }

func (m *localMesh) lane(key linkKey) *queue {
	q := m.cache[key]
	if q == nil {
		q = m.f.lanes.lane(key)
		m.cache[key] = q
	}
	return q
}

func (m *localMesh) Send(to int, stream uint32, data []float64) error {
	t := m.f.lanes
	if err := t.checkPeer(m.rank, to, "send"); err != nil {
		return err
	}
	buf := t.pool.GetRaw(len(data)) //mlperfvet:owns — queued message, reclaimed by Recv or the lane's poison drain
	copy(buf, data)
	if err := m.lane(linkKey{from: m.rank, to: to, stream: stream}).push(buf); err != nil {
		t.pool.Put(buf)
		return peerErr(to, "send", err)
	}
	return nil
}

func (m *localMesh) Recv(from int, stream uint32, buf []float64) ([]float64, error) {
	t := m.f.lanes
	if err := t.checkPeer(m.rank, from, "recv"); err != nil {
		return nil, err
	}
	return t.deliver(m.lane(linkKey{from: from, to: m.rank, stream: stream}), from, m.f.Straggler, buf)
}

func (m *localMesh) Fail(rank int, err error) { m.f.lanes.fail(rank, err) }

// Close marks this endpoint's rank down with ErrClosed, so peers blocked on
// it fail fast; pending buffers are reclaimed into the fabric pool.
func (m *localMesh) Close() error {
	m.f.lanes.fail(m.rank, ErrClosed)
	return nil
}

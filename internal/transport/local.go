package transport

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arena"
)

// LocalFabric is the in-process channel backend: a world of Mesh endpoints
// connected by ordered pooled queues, extracted from the ad-hoc channel
// wiring that used to live inside Ring and internal/pipeline. It is
// the bit-identity oracle backend — Send copies the payload, Recv copies it
// out, and float64 copies preserve bits — and the default the engines build
// when no external Mesh is injected. Warm Send/Recv pairs perform zero heap
// allocations (pooled message buffers, cached queue lookups), preserving
// the engines' steady-state allocation contract.
//
// Its lanes are the ones whose consumers poll: a Recv that finds its lane
// empty yields the processor a bounded number of times before it parks
// (YieldPoll), with or without a Straggler timeout, because both ends are
// goroutines of one process and the frame it waits for is tens of µs away.
// A TCPMesh lane never polls: the choice belongs to the backend that built
// the lane, and there is nothing to set.
type LocalFabric struct {
	world int
	pool  *arena.Arena

	// Straggler, when positive, bounds every Recv wait; expiry surfaces
	// ErrStraggler without marking the peer down. Set before first use.
	Straggler time.Duration

	mu     sync.Mutex
	queues map[linkKey]*queue
	down   []error // per-rank down cause; nil = alive
	eps    []*localMesh
}

// linkKey identifies one ordered lane.
type linkKey struct {
	from, to int
	stream   uint32
}

// NewLocalFabric builds a world-member fabric drawing message buffers from
// pool (nil gives the fabric a private arena).
func NewLocalFabric(world int, pool *arena.Arena) *LocalFabric {
	if world < 1 {
		panic(fmt.Sprintf("transport: NewLocalFabric world %d < 1", world))
	}
	if pool == nil {
		pool = arena.New()
	}
	f := &LocalFabric{
		world:  world,
		pool:   pool,
		queues: make(map[linkKey]*queue),
		down:   make([]error, world),
		eps:    make([]*localMesh, world),
	}
	for r := range f.eps {
		f.eps[r] = &localMesh{
			f:      f,
			rank:   r,
			events: make(chan Event, 4*world),
			out:    make(map[linkKey]*queue),
			in:     make(map[linkKey]*queue),
		}
	}
	return f
}

// World returns the fabric's member count.
func (f *LocalFabric) World() int { return f.world }

// Endpoint returns rank's Mesh. Each endpoint's Send/Recv must be driven by
// a single goroutine (the usual engine-runtime ownership).
func (f *LocalFabric) Endpoint(rank int) Mesh { return f.eps[rank] }

// Fail marks rank down fabric-wide (see Mesh.Fail).
func (f *LocalFabric) Fail(rank int, err error) { f.fail(rank, err) }

// lane returns the queue for key, creating it poisoned when either side is
// already down so late subscribers observe the failure too.
func (f *LocalFabric) lane(key linkKey) *queue {
	f.mu.Lock()
	q := f.queues[key]
	if q == nil {
		q = newQueue(true)
		if err := f.down[key.from]; err != nil {
			q.err = err
		} else if err := f.down[key.to]; err != nil {
			q.err = err
		}
		f.queues[key] = q
	}
	f.mu.Unlock()
	return q
}

// fail marks rank down with the given cause (first cause wins), poisons
// every lane touching it, and emits Leave to every other live endpoint.
func (f *LocalFabric) fail(rank int, cause error) {
	f.mu.Lock()
	if f.down[rank] != nil {
		f.mu.Unlock()
		return
	}
	f.down[rank] = cause
	poisoned := make([]*queue, 0, len(f.queues))
	for key, q := range f.queues { // order-insensitive: collects for poisoning
		if key.from == rank || key.to == rank {
			poisoned = append(poisoned, q)
		}
	}
	f.mu.Unlock()
	for _, q := range poisoned {
		q.fail(cause, f.pool)
	}
	for r, ep := range f.eps {
		if r == rank {
			continue
		}
		select {
		case ep.events <- Event{Rank: rank, Kind: EventLeave, Err: cause}:
		default:
		}
	}
}

// localMesh is one member's view of a LocalFabric.
type localMesh struct {
	f      *LocalFabric
	rank   int
	events chan Event

	// out/in cache lane lookups so the steady-state path never takes the
	// fabric map lock. They are touched only by the endpoint's owning
	// goroutine (the single-goroutine Send/Recv contract).
	out map[linkKey]*queue
	in  map[linkKey]*queue
}

func (m *localMesh) Rank() int            { return m.rank }
func (m *localMesh) World() int           { return m.f.world }
func (m *localMesh) Events() <-chan Event { return m.events }

func (m *localMesh) Send(to int, stream uint32, data []float64) error {
	if to < 0 || to >= m.f.world || to == m.rank {
		return peerErr(to, "send", ErrBadFrame)
	}
	key := linkKey{from: m.rank, to: to, stream: stream}
	q := m.out[key]
	if q == nil {
		q = m.f.lane(key)
		m.out[key] = q
	}
	buf := m.f.pool.GetRaw(len(data)) //mlperfvet:owns — queued message, reclaimed by Recv or the lane's poison drain
	copy(buf, data)
	if err := q.push(buf); err != nil {
		m.f.pool.Put(buf)
		return peerErr(to, "send", err)
	}
	return nil
}

func (m *localMesh) Recv(from int, stream uint32, buf []float64) ([]float64, error) {
	if from < 0 || from >= m.f.world || from == m.rank {
		return nil, peerErr(from, "recv", ErrBadFrame)
	}
	key := linkKey{from: from, to: m.rank, stream: stream}
	q := m.in[key]
	if q == nil {
		q = m.f.lane(key)
		m.in[key] = q
	}
	data, err := q.pop(m.f.Straggler)
	if err != nil {
		return nil, peerErr(from, "recv", err)
	}
	out := buf
	if cap(out) < len(data) {
		out = make([]float64, len(data))
	} else {
		out = out[:len(data)]
	}
	copy(out, data)
	m.f.pool.Put(data)
	return out, nil
}

func (m *localMesh) Barrier() error { return meshBarrier(m) }

func (m *localMesh) Fail(rank int, err error) { m.f.fail(rank, err) }

// Close marks this endpoint's rank down with ErrClosed, so peers blocked on
// it fail fast; pending buffers are reclaimed into the fabric pool.
func (m *localMesh) Close() error {
	m.f.fail(m.rank, ErrClosed)
	return nil
}

package transport

import (
	"sync"
	"time"

	"repro/internal/arena"
)

// linkKey identifies one ordered lane.
type linkKey struct {
	from, to int
	stream   uint32
}

// laneTable is the bookkeeping under both backends: the lanes of a group
// (every lane of a LocalFabric's world; the inbound lanes of one TCPMesh),
// which ranks are down and why, and what a failure does to the lanes. A
// backend says only whether its lanes' consumers poll before they park
// (queue.pop); everything else about a lane is the same on both.
type laneTable struct {
	pool *arena.Arena
	poll bool

	mu    sync.Mutex
	lanes map[linkKey]*queue
	down  []error // per-rank down cause; nil = alive
}

func newLaneTable(world int, pool *arena.Arena, poll bool) *laneTable {
	if pool == nil {
		pool = arena.New()
	}
	return &laneTable{pool: pool, poll: poll, lanes: make(map[linkKey]*queue), down: make([]error, world)}
}

// checkPeer refuses a peer outside the world, and self: no lane joins a rank
// to itself.
func (t *laneTable) checkPeer(self, peer int, op string) error {
	if peer < 0 || peer >= len(t.down) || peer == self {
		return peerErr(peer, op, ErrBadFrame)
	}
	return nil
}

// lane returns the queue for key, creating it poisoned when either end is
// already down, so a lane subscribed after a failure observes it too.
func (t *laneTable) lane(key linkKey) *queue {
	t.mu.Lock()
	q := t.lanes[key]
	if q == nil {
		q = newQueue(t.poll)
		if err := t.down[key.from]; err != nil {
			q.err = err
		} else if err := t.down[key.to]; err != nil {
			q.err = err
		}
		t.lanes[key] = q
	}
	t.mu.Unlock()
	return q
}

// cause returns why rank is down, or nil while it is alive.
func (t *laneTable) cause(rank int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down[rank]
}

// fail marks rank down with the given cause (the first cause wins) and
// poisons every lane touching it: blocked consumers wake with the cause,
// pending messages return to the pool.
func (t *laneTable) fail(rank int, cause error) {
	t.mu.Lock()
	if t.down[rank] != nil {
		t.mu.Unlock()
		return
	}
	t.down[rank] = cause
	poisoned := make([]*queue, 0, len(t.lanes))
	for key, q := range t.lanes { // order-insensitive: collects for poisoning
		if key.from == rank || key.to == rank {
			poisoned = append(poisoned, q)
		}
	}
	t.mu.Unlock()
	for _, q := range poisoned {
		q.fail(cause, t.pool)
	}
}

// deliver is the tail of every Recv: wait for q's next message (a positive
// timeout bounds the wait), copy it into buf when buf has room for it and
// into a fresh slice when not, and return the pooled buffer.
func (t *laneTable) deliver(q *queue, from int, timeout time.Duration, buf []float64) ([]float64, error) {
	data, err := q.pop(timeout)
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
	t.pool.Put(data)
	return out, nil
}

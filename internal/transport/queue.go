package transport

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/arena"
)

// pollYields bounds the yields a consumer of an in-process hand-off spends
// before it parks (YieldPoll). A yield with nothing else runnable costs
// about 0.12 µs and the hand-offs of a training step arrive 10-30 µs apart,
// so 200 yields cover them and an idle engine is asleep 25 µs after its
// last step. BENCH_engine.json's poll_bound rows pick it: the NCF DP-2
// step reads 0.165 ms at 50 yields (the longer waits outlast the poll and
// park anyway), 0.157 ms at 200 and 0.167 ms at 1000 (no better, and an
// idle engine would poll five times as long before it sleeps).
const pollYields = 200

// YieldPoll is what a consumer of an in-process hand-off does before it
// blocks on ch: yield the processor up to pollYields times while ch is
// empty, then return for the caller to receive as it always did. Parking a
// goroutine and waking it through the scheduler costs more than the
// hand-offs inside a training step are apart, and left a third of each
// core idle. It is a yield and not a busy spin, so when the runnable
// goroutines outnumber the processors the poll hands its processor to the
// peer it is waiting for, and one processor cannot livelock. The lanes of
// a LocalFabric poll, and so do the engine's cells on their start
// channels; a TCPMesh lane does not, because its frames arrive through the
// netpoller, which a polling consumer delays.
//
//mlperfvet:hotpath
func YieldPoll(ch <-chan struct{}) {
	for i := 0; i < pollYields && len(ch) == 0; i++ {
		runtime.Gosched()
	}
}

// queue is one ordered (sender, receiver, stream) message lane: an
// unbounded FIFO of pooled float buffers with a single consumer. Senders
// never block (the engines' pipelining depends on that — ring chunk sends
// and boundary publishes must not rendezvous), and a terminal error poisons
// the lane: the consumer wakes immediately and every later pop fails with
// the same cause. Warm push/pop perform zero heap allocations: the item
// ring reuses its backing array, wakeups ride a 1-buffered channel, and a
// straggler timeout re-arms one timer.
//
// Which backend built the lane decides how its consumer waits, and nothing
// else does: a LocalFabric lane yield-polls before it parks (YieldPoll), a
// TCPMesh lane parks at once.
type queue struct {
	mu    sync.Mutex
	items [][]float64
	head  int
	err   error

	// notify carries at most one pending wakeup token; pop re-checks
	// state after every receive, so a coalesced token cannot lose a
	// message or a poisoning.
	notify chan struct{}
	// poll is set on in-process lanes.
	poll bool
	// timer is the straggler timer, created by the first timed wait that
	// finds the lane empty and re-armed by the later ones (one consumer,
	// so nobody else touches it).
	timer *time.Timer
}

func newQueue(poll bool) *queue {
	return &queue{notify: make(chan struct{}, 1), poll: poll}
}

// push appends a message the queue now owns (a pooled buffer; see drainTo).
// On a poisoned queue it returns the poison cause and does NOT take
// ownership — the caller reclaims the buffer.
func (q *queue) push(data []float64) error {
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		return err
	}
	if q.head == len(q.items) {
		// Fully drained: restart at the front so the backing array is
		// reused instead of growing without bound.
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, data)
	q.mu.Unlock()
	q.wake()
	return nil
}

// pop blocks for the next message and transfers its ownership to the
// caller. A positive timeout bounds the wait (ErrStraggler); the queue
// stays usable afterwards. A poisoned queue fails immediately once empty
// of nothing — poisoning drains pending messages, so poison takes effect
// at once.
func (q *queue) pop(timeout time.Duration) ([]float64, error) {
	armed := false
	defer func() {
		if armed {
			q.timer.Stop()
		}
	}()
	for {
		q.mu.Lock()
		if q.head < len(q.items) {
			data := q.items[q.head]
			q.items[q.head] = nil
			q.head++
			q.mu.Unlock()
			return data, nil
		}
		if q.err != nil {
			err := q.err
			q.mu.Unlock()
			return nil, err
		}
		q.mu.Unlock()

		if q.poll {
			YieldPoll(q.notify)
		}
		if timeout <= 0 {
			<-q.notify
			continue
		}
		if !armed {
			// One deadline for the whole wait, however many tokens
			// wake it. Stop and Reset leave no stale tick behind
			// (timers since Go 1.23).
			if q.timer == nil {
				q.timer = time.NewTimer(timeout)
			} else {
				q.timer.Reset(timeout)
			}
			armed = true
		}
		select {
		case <-q.notify:
		case <-q.timer.C:
			return nil, ErrStraggler
		}
	}
}

// fail poisons the queue with cause err (first cause wins), reclaims every
// pending message into pool, and wakes the consumer.
func (q *queue) fail(err error, pool *arena.Arena) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	pending := q.items[q.head:]
	q.items = nil
	q.head = 0
	q.mu.Unlock()
	for _, data := range pending {
		pool.Put(data)
	}
	q.wake()
}

func (q *queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

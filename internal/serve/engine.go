package serve

import (
	"sync"
	"time"

	"repro/internal/clock"
)

// query is one in-flight inference request: a sample index plus issue
// metadata. IDs are dense (0..n-1 in issue order), so results land in
// per-query slots with no locking.
type query struct {
	id     int
	sample int
	// issued is the query's arrival time on the run clock — the scheduled
	// arrival for paced scenarios, so dispatch lag counts against latency.
	issued time.Duration
}

// engine is the serving pipeline behind the batched scenarios: an
// admission-controlled bounded queue feeding W worker goroutines, each
// with its own InferContext and each forming its own batches. Per-query
// results land in dense slot arrays (disjoint indices — no locks). The
// engine never drops an admitted query and never hangs: close drains
// everything in flight and joins every goroutine, which the leakcheck
// teardown test asserts.
type engine struct {
	cfg Config
	clk clock.Clock

	in chan query // admission queue (bounded at cfg.QueueCap)

	pred []float64       // prediction per query id
	lat  []time.Duration // completion latency per query id
	done []bool          // completion flag per query id

	workers sync.WaitGroup
	closed  bool
}

// newEngine starts the worker goroutines for a run of n queries. cfg must
// already have defaults filled.
func newEngine(b Backend, cfg Config, n int) *engine {
	e := &engine{
		cfg:  cfg,
		clk:  cfg.Clock,
		in:   make(chan query, cfg.QueueCap),
		pred: make([]float64, n),
		lat:  make([]time.Duration, n),
		done: make([]bool, n),
	}
	e.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker(b.NewContext())
	}
	return e
}

// offer admits q, or rejects it with a typed *OverloadError when the
// bounded queue is full. It never blocks — admission control is what
// keeps an overloaded server's queue (and tail latency) from growing
// without bound.
func (e *engine) offer(q query) error {
	select {
	case e.in <- q:
		return nil
	default:
		return &OverloadError{QueryID: q.id, Sample: q.sample, QueueCap: e.cfg.QueueCap}
	}
}

// put admits q, blocking until there is queue space — the offline
// scenario's backpressure mode, where nothing is rejected because nothing
// has a deadline.
func (e *engine) put(q query) { e.in <- q }

// close stops admission, drains every in-flight query, and joins the
// workers. After close, the slot arrays are safe to read.
func (e *engine) close() {
	if e.closed {
		return
	}
	e.closed = true
	close(e.in)
	e.workers.Wait()
}

// next takes the next admitted query, blocking for one when wait is set.
// ok is false when the queue is empty (without wait) or closed.
func (e *engine) next(wait bool) (query, bool) {
	if wait {
		q, ok := <-e.in
		return q, ok
	}
	select {
	case q, ok := <-e.in:
		return q, ok
	default:
		return query{}, false
	}
}

// worker is one inference context's loop: it blocks for the first query
// of a batch and adds follow-ups up to MaxBatch, runs the batch, and
// records each query's prediction and latency in its slot. In the latency
// scenarios it takes only queries already queued, so a batch never waits
// for traffic while the context could run it; batches still coalesce
// under load, because arrivals pile up in the queue while every context
// is busy. Offline has no deadlines, so its batches fill to MaxBatch or
// until admission closes.
func (e *engine) worker(ctx InferContext) {
	defer e.workers.Done()
	fill := e.cfg.Scenario == Offline
	batch := make([]query, 0, e.cfg.MaxBatch)
	samples := make([]int, 0, e.cfg.MaxBatch)
	out := make([]float64, e.cfg.MaxBatch)
	for q := range e.in {
		batch = append(batch[:0], q)
		for len(batch) < e.cfg.MaxBatch {
			q, ok := e.next(fill)
			if !ok {
				break
			}
			batch = append(batch, q)
		}
		samples = samples[:0]
		for _, q := range batch {
			samples = append(samples, q.sample)
		}
		ctx.InferBatch(samples, out[:len(batch)])
		now := e.clk.Now()
		for i, q := range batch {
			e.pred[q.id] = out[i]
			e.lat[q.id] = now - q.issued
			e.done[q.id] = true
		}
	}
}

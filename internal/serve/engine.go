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
// admission-controlled bounded queue feeding a dynamic batcher feeding W
// worker goroutines, each with its own InferContext. Per-query results
// land in dense slot arrays (disjoint indices — no locks). The engine
// never drops an admitted query and never hangs: close drains everything
// in flight and joins every goroutine, which the leakcheck teardown test
// asserts.
type engine struct {
	cfg Config
	clk clock.Clock

	in      chan query   // admission queue (bounded at cfg.QueueCap)
	batches chan []query // batcher → workers
	bufs    chan []query // recycled batch buffers

	pred []float64       // prediction per query id
	lat  []time.Duration // completion latency per query id
	done []bool          // completion flag per query id

	workers sync.WaitGroup
	batcher sync.WaitGroup
	closed  bool
}

// newEngine starts the batcher and worker goroutines for a run of n
// queries. cfg must already have defaults filled.
func newEngine(b Backend, cfg Config, n int) *engine {
	e := &engine{
		cfg:     cfg,
		clk:     cfg.Clock,
		in:      make(chan query, cfg.QueueCap),
		batches: make(chan []query, cfg.Workers),
		bufs:    make(chan []query, cfg.Workers+2),
		pred:    make([]float64, n),
		lat:     make([]time.Duration, n),
		done:    make([]bool, n),
	}
	for i := 0; i < cap(e.bufs); i++ {
		e.bufs <- make([]query, 0, cfg.MaxBatch)
	}
	e.batcher.Add(1)
	go e.batchLoop()
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
// batcher and workers. After close, the slot arrays are safe to read.
func (e *engine) close() {
	if e.closed {
		return
	}
	e.closed = true
	close(e.in)
	e.batcher.Wait()
	e.workers.Wait()
}

// getBuf draws a recycled batch buffer.
func (e *engine) getBuf() []query {
	select {
	case b := <-e.bufs:
		return b[:0]
	default:
		return make([]query, 0, e.cfg.MaxBatch)
	}
}

// putBuf returns a batch buffer to the recycle pool.
func (e *engine) putBuf(b []query) {
	select {
	case e.bufs <- b:
	default:
	}
}

// batchLoop is the dynamic batcher: it blocks for the first query of a
// batch and adds follow-ups up to MaxBatch. In the latency scenarios it
// takes only queries already queued and ships, so a batch never waits for
// traffic while a context could run it; batches still coalesce under load,
// because while every context is busy the send on batches blocks and
// arrivals pile up in the queue. Offline has no deadlines, so its batches
// fill to MaxBatch or until admission closes.
func (e *engine) batchLoop() {
	defer e.batcher.Done()
	defer close(e.batches)
	fill := e.cfg.Scenario == Offline
	for q := range e.in {
		buf := append(e.getBuf(), q)
		for len(buf) < e.cfg.MaxBatch {
			q, ok := e.next(fill)
			if !ok {
				break
			}
			buf = append(buf, q)
		}
		e.batches <- buf
	}
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

// worker runs batches through one inference context and records each
// query's prediction and latency in its slot.
func (e *engine) worker(ctx InferContext) {
	defer e.workers.Done()
	samples := make([]int, 0, e.cfg.MaxBatch)
	out := make([]float64, e.cfg.MaxBatch)
	for buf := range e.batches {
		samples = samples[:0]
		for _, q := range buf {
			samples = append(samples, q.sample)
		}
		ctx.InferBatch(samples, out[:len(buf)])
		now := e.clk.Now()
		for i, q := range buf {
			e.pred[q.id] = out[i]
			e.lat[q.id] = now - q.issued
			e.done[q.id] = true
		}
		e.putBuf(buf)
	}
}

package serve

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakcheck"
)

// fakeCtx is a test InferContext: out[i] = 2*samples[i], with optional
// fixed per-batch latency, an optional entered signal sent as each batch
// starts, and an optional gate that blocks every batch until released (for
// wedging the context deterministically).
type fakeCtx struct {
	delay   time.Duration
	entered chan<- struct{}
	gate    chan struct{}

	mu      *sync.Mutex
	batches *[][]int
}

func (c *fakeCtx) InferBatch(samples []int, out []float64) {
	if c.entered != nil {
		c.entered <- struct{}{}
	}
	if c.gate != nil {
		<-c.gate
	}
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	if c.mu != nil {
		c.mu.Lock()
		*c.batches = append(*c.batches, append([]int(nil), samples...))
		c.mu.Unlock()
	}
	for i := range samples {
		out[i] = 2 * float64(samples[i])
	}
}

// fakeBackend wires a fakeCtx template into a Backend; every context shares
// the same gate and batch log.
func fakeBackend(samples int, tmpl fakeCtx) Backend {
	return Backend{
		Name:    "fake",
		Samples: samples,
		NewContext: func() InferContext {
			c := tmpl
			return &c
		},
	}
}

func mustDefaults(t *testing.T, cfg Config, b Backend) Config {
	t.Helper()
	cfg, err := cfg.withDefaults(b)
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	return cfg
}

// checkDone fails unless every one of n queries completed with the fake
// backend's prediction.
func checkDone(t *testing.T, e *engine, n int) {
	t.Helper()
	for id := 0; id < n; id++ {
		if !e.done[id] {
			t.Fatalf("query %d not completed", id)
		}
		if e.pred[id] != 2*float64(id) {
			t.Errorf("query %d prediction %v, want %v", id, e.pred[id], 2*float64(id))
		}
	}
}

// TestBatcherShipsWhenIdle: in a latency scenario a query that finds its
// context idle ships at once, alone. The worker holds nothing open for
// traffic that is not there, so under a trickle a query's latency is
// inference plus one goroutine hand-off, not a timer.
func TestBatcherShipsWhenIdle(t *testing.T) {
	defer leakcheck.Check(t)()
	var mu sync.Mutex
	var batches [][]int
	b := fakeBackend(16, fakeCtx{mu: &mu, batches: &batches})
	cfg := mustDefaults(t, Config{
		Scenario: Server, Queries: 4, TargetQPS: 1,
		MaxBatch: 8, QueueCap: 32, Workers: 1,
	}, b)
	clk := clock.NewReal()
	cfg.Clock = clk
	e := newEngine(b, cfg, 4)
	for i := 0; i < 4; i++ {
		if err := e.offer(query{id: i, sample: i, issued: clk.Now()}); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
		time.Sleep(15 * time.Millisecond) // the next query arrives long after this one is served
	}
	e.close()
	if len(batches) != 4 {
		t.Fatalf("got %d batches %v, want 4 singletons", len(batches), batches)
	}
	for i, bt := range batches {
		if len(bt) != 1 {
			t.Errorf("batch %d = %v, want a singleton", i, bt)
		}
	}
	checkDone(t, e, 4)
	for id := 0; id < 4; id++ {
		if e.lat[id] >= time.Millisecond {
			t.Errorf("query %d latency %v >= 1ms with its context idle: the worker held it", id, e.lat[id])
		}
	}
}

// TestBatcherMaxBatchBurst: offline batches fill to MaxBatch by
// construction, however slowly queries arrive (the gaps below would ship
// partial batches in a latency scenario), and only the close of admission
// flushes the last, partial one.
func TestBatcherMaxBatchBurst(t *testing.T) {
	defer leakcheck.Check(t)()
	var mu sync.Mutex
	var batches [][]int
	b := fakeBackend(64, fakeCtx{mu: &mu, batches: &batches})
	cfg := mustDefaults(t, Config{
		Scenario: Offline, Queries: 18,
		MaxBatch: 4, QueueCap: 64, Workers: 1,
	}, b)
	clk := clock.NewReal()
	cfg.Clock = clk
	e := newEngine(b, cfg, 18)
	for i := 0; i < 18; i++ {
		e.put(query{id: i, sample: i, issued: clk.Now()})
		if i%3 == 2 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	e.close()
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}, {12, 13, 14, 15}, {16, 17}}
	if !slices.EqualFunc(batches, want, slices.Equal[[]int]) {
		t.Fatalf("batches %v, want %v: offline must fill every batch but the one the close flushes", batches, want)
	}
	checkDone(t, e, 18)
}

// TestServerCoalescesWhileBusy: shipping when a context is free does not
// stop batching. While the one context is wedged on query 0, arrivals pile
// up in the queue; once it frees, the worker takes them in batches of
// MaxBatch, in arrival order.
func TestServerCoalescesWhileBusy(t *testing.T) {
	defer leakcheck.Check(t)()
	const n = 17
	var mu sync.Mutex
	var batches [][]int
	gate := make(chan struct{})
	entered := make(chan struct{}, n)
	b := fakeBackend(64, fakeCtx{entered: entered, gate: gate, mu: &mu, batches: &batches})
	cfg := mustDefaults(t, Config{
		Scenario: Server, Queries: n, TargetQPS: 1,
		MaxBatch: 8, QueueCap: 32, Workers: 1,
	}, b)
	clk := clock.NewReal()
	cfg.Clock = clk
	e := newEngine(b, cfg, n)
	offer := func(i int) {
		t.Helper()
		if err := e.offer(query{id: i, sample: i, issued: clk.Now()}); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	offer(0)
	select {
	case <-entered: // the context is wedged on query 0
	case <-time.After(10 * time.Second):
		t.Fatal("query 0 never reached the context")
	}
	for i := 1; i < n; i++ {
		offer(i)
	}
	close(gate)
	e.close()

	want := [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 15, 16}}
	if !slices.EqualFunc(batches, want, slices.Equal[[]int]) {
		t.Fatalf("batches %v, want %v: [0] alone, then the queue behind the busy context in full batches", batches, want)
	}
	checkDone(t, e, n)
}

// atomicTick is clock.Tick made safe for concurrent readers: every Now
// advances it by tick. The issuing loop and the engine's worker both read
// it.
type atomicTick struct {
	t    atomic.Int64
	tick time.Duration
}

func (c *atomicTick) Now() time.Duration { return time.Duration(c.t.Add(int64(c.tick))) }

// TestServerTickClockPacesOnce: a clock that advances per read, not with
// wall time, must not make the issuing loop sleep an arrival gap once per
// tick. At 2000 QPS and a 1 µs tick that was about 250 sleeps a query.
func TestServerTickClockPacesOnce(t *testing.T) {
	defer leakcheck.Check(t)()
	wall := clock.NewReal()
	rep, err := Run(fakeBackend(64, fakeCtx{}), Config{
		Scenario: Server, Queries: 50, Seed: 1, TargetQPS: 2000,
		Clock: &atomicTick{tick: time.Microsecond},
	})
	took := wall.Now()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Completed != 50 {
		t.Errorf("%d of 50 queries completed (%d rejected)", rep.Completed, rep.Rejected)
	}
	if took > 2*time.Second {
		t.Errorf("50 queries took %v on a per-read tick clock, want under 2s", took)
	}
}

// TestAdmissionRejectsTyped: with the backend wedged, offers beyond the
// pipeline's capacity must fail fast with a typed *OverloadError — never
// block. This is the serving analogue of transport.PeerError: overload is
// a typed outcome, not a hang.
func TestAdmissionRejectsTyped(t *testing.T) {
	defer leakcheck.Check(t)()
	gate := make(chan struct{})
	b := fakeBackend(64, fakeCtx{gate: gate})
	cfg := mustDefaults(t, Config{
		Scenario: Offline, Queries: 32,
		MaxBatch: 1, QueueCap: 2, Workers: 1,
	}, b)
	clk := clock.NewReal()
	cfg.Clock = clk
	e := newEngine(b, cfg, 32)

	rejected := make([]bool, 32)
	nrej := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 32; i++ {
			err := e.offer(query{id: i, sample: i, issued: clk.Now()})
			if err == nil {
				continue
			}
			var oe *OverloadError
			if !errors.As(err, &oe) {
				t.Errorf("offer %d: error %T %v, want *OverloadError", i, err, err)
				continue
			}
			if oe.QueryID != i || oe.QueueCap != 2 {
				t.Errorf("offer %d: OverloadError %+v, want QueryID=%d QueueCap=2", i, oe, i)
			}
			rejected[i] = true
			nrej++
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("offer loop blocked: admission control must reject, not block")
	}
	if nrej == 0 {
		t.Fatal("no rejections with a wedged backend and QueueCap=2")
	}
	close(gate) // release the backend; close drains every admitted query
	e.close()
	for id := 0; id < 32; id++ {
		if rejected[id] {
			continue
		}
		if !e.done[id] {
			t.Errorf("admitted query %d not completed after close", id)
		}
	}
	t.Logf("%d of 32 rejected", nrej)
}

// TestEngineTeardownMidFlight: close with dozens of queries in flight must
// drain them all and join every goroutine — leakcheck asserts nothing is
// stranded, mirroring the transport teardown audits.
func TestEngineTeardownMidFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	b := fakeBackend(128, fakeCtx{delay: time.Millisecond})
	cfg := mustDefaults(t, Config{
		Scenario: Offline, Queries: 64,
		MaxBatch: 4, QueueCap: 64, Workers: 4,
	}, b)
	clk := clock.NewReal()
	cfg.Clock = clk
	e := newEngine(b, cfg, 64)
	for i := 0; i < 64; i++ {
		e.put(query{id: i, sample: i, issued: clk.Now()})
	}
	e.close() // immediately: most queries still queued or mid-inference
	checkDone(t, e, 64)
	e.close() // idempotent
}

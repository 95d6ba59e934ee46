package dist_test

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/transport"
)

// TestStepAllocsZero asserts the steady-state contract end to end: once a
// few warmup steps have populated the tensor arena, the pooled tape slots,
// and the batch buffers, a full synchronous data-parallel training step —
// forward, backward, ring all-reduce, optimizer update, loader advance —
// performs zero heap allocations, serial and at 4 workers. The kernel pool
// is pinned to 1 worker (see bench_step_test.go for why).
func TestStepAllocsZero(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	hp := models.DefaultNCFHParams()
	for _, workers := range []int{1, 4} {
		eng, err := dist.New(dist.Config{
			Endpoint:    transport.Endpoint{Workers: workers},
			Microshards: 8,
			GlobalBatch: 256, DatasetN: len(ds.Train), Seed: 1, DropLast: true,
		}, func(worker int) dist.Replica {
			m := models.NewRecommendation(ds, hp, 1)
			return dist.Replica{Model: m, Opt: m.Opt}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			eng.StepNext()
		}
		if n := testing.AllocsPerRun(10, func() { eng.StepNext() }); n != 0 {
			t.Errorf("workers=%d: warm training step allocates %v per step, want 0", workers, n)
		}
		eng.Close()
	}
}

// TestArenaRecyclingAcrossEngines asserts the shared-arena contract that
// core.Configure relies on: after Close returns an engine's buffers —
// including the per-worker tapes' working sets — to a shared arena, a
// second engine drawing from the same arena warms up mostly from the pool
// instead of the heap.
func TestArenaRecyclingAcrossEngines(t *testing.T) {
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	hp := models.DefaultNCFHParams()
	pool := arena.New()
	run := func() {
		eng, err := dist.New(dist.Config{
			Endpoint:    transport.Endpoint{Workers: 2},
			Microshards: 4, Arena: pool,
			GlobalBatch: 64, DatasetN: len(ds.Train), Seed: 1, DropLast: true,
		}, func(worker int) dist.Replica {
			m := models.NewRecommendation(ds, hp, 1)
			return dist.Replica{Model: m, Opt: m.Opt}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			eng.StepNext()
		}
		eng.Close()
	}
	run()
	first := pool.Stats()
	if first.Puts == 0 {
		t.Fatal("Close returned no buffers to the shared arena")
	}
	run()
	second := pool.Stats()
	missed := second.Misses - first.Misses
	if missed*2 > first.Misses {
		t.Errorf("second engine missed %d times vs %d cold misses; shared arena is not recycling", missed, first.Misses)
	}
}

// TestCloseIdempotent covers engine shutdown: Close must stop the
// persistent workers, tolerate repeated calls, and be a no-op on serial
// engines.
func TestCloseIdempotent(t *testing.T) {
	ds := datasets.GenerateRec(datasets.DefaultRecConfig())
	hp := models.DefaultNCFHParams()
	for _, workers := range []int{1, 2} {
		eng, err := dist.New(dist.Config{
			Endpoint:    transport.Endpoint{Workers: workers},
			GlobalBatch: 16, DatasetN: len(ds.Train), Seed: 1,
		}, func(worker int) dist.Replica {
			m := models.NewRecommendation(ds, hp, 1)
			return dist.Replica{Model: m, Opt: m.Opt}
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.StepNext()
		eng.Close()
		eng.Close() // must not panic
	}
}

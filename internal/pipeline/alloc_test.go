package pipeline_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// TestStepAllocsZero asserts the steady-state contract end to end: once a
// few warmup steps have populated the tensor arena, the per-slot pooled
// tapes, the boundary-transfer cells and the batch buffers, a full
// training step — microbatch schedule, forward, backward, activation and
// gradient exchange between stages, ring all-reduce, optimizer updates,
// loader advance — performs zero heap allocations, serial, data-parallel,
// pipelined and hybrid DP×PP, and for the PP-2 transformer step the repo
// benchmark times (attention one pooled tape node, the positional
// constants cached per shape). Each row also holds the engine to its slot
// bound: stage s keeps min(S−s, M/K) tape slots. The ragged rows keep
// an epoch's short last batch (DropLast off) and measure a whole epoch:
// the tape's tensors shrink within their buffers for it and grow back for
// the next full batch. The kernel pool is pinned to 1 worker (see
// bench_step_test.go for why).
func TestStepAllocsZero(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	for _, row := range []struct {
		id       string
		k, s     int
		m, batch int // batch 0 is the benchmark's reference batch
		ragged   bool
		slots    []int // per stage
	}{
		{"recommendation", 1, 1, 8, 256, false, []int{1}},
		{"recommendation", 4, 1, 8, 256, false, []int{1}},
		{"recommendation", 1, 1, 8, 256, true, []int{1}},
		{"recommendation", 4, 1, 8, 256, true, []int{1}},
		{"image_classification", 1, 4, 4, 0, false, []int{4, 3, 2, 1}},
		{"image_classification", 2, 2, 4, 0, false, []int{2, 1}},
		{"translation_transformer", 1, 2, 4, 16, false, []int{2, 1}},
	} {
		name := fmt.Sprintf("%s K=%d S=%d", row.id, row.k, row.s)
		if row.ragged {
			name += " ragged"
		}
		t.Run(name, func(t *testing.T) {
			cfg := shape(row.k, row.s, row.m, row.batch, 1)
			cfg.DropLast = !row.ragged
			eng := newEngine(t, row.id, cfg)
			defer eng.Close()
			if got := eng.Slots(); !slices.Equal(got, row.slots) {
				t.Errorf("tape slots per stage %v, want %v", got, row.slots)
			}
			for i := 0; i < 6; i++ {
				eng.StepNext()
			}
			if row.ragged {
				// One unmeasured epoch, then one measured: each holds the
				// short batch and the full batch after it.
				if n := testing.AllocsPerRun(1, func() { eng.TrainEpoch() }); n != 0 {
					t.Errorf("warm epoch with a ragged last batch allocates %v times, want 0", n)
				}
				return
			}
			if n := testing.AllocsPerRun(10, func() { eng.StepNext() }); n != 0 {
				t.Errorf("warm training step allocates %v per step, want 0", n)
			}
		})
	}
}

// TestArenaRecyclingAcrossEngines asserts the shared-arena contract that
// core.Configure relies on: after Close returns an engine's buffers —
// including the per-worker tapes' working sets — to a shared arena, a
// second engine drawing from the same arena warms up mostly from the pool
// instead of the heap.
func TestArenaRecyclingAcrossEngines(t *testing.T) {
	pool := arena.New()
	run := func() {
		eng := newEngine(t, "recommendation", pipeline.Config{
			Endpoint: transport.Endpoint{Workers: 2}, Stages: 1,
			Microbatches: 4, Arena: pool,
			GlobalBatch: 64, Seed: 1, DropLast: true,
		})
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

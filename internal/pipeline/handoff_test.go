package pipeline_test

import (
	"runtime"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/parallel"
)

// TestCloseWhileCellsPoll closes an engine whose cells are inside the
// yield-poll on their start channels (they are born there, and are back in
// it a few µs after a step): every cell goroutine must exit, and a second
// Close must do nothing.
func TestCloseWhileCellsPoll(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, steps := range []int{0, 3} {
		eng := newEngine(t, "recommendation", shape(2, 1, 8, 64, 1))
		for i := 0; i < steps; i++ {
			eng.StepNext()
		}
		eng.Close()
		eng.Close()
	}
}

// TestHandOffsOnOneProcessor runs DP-2 and PP-2 invariance cells with one
// processor for every goroutine. A consumer that spun instead of yielding
// would hold the only processor its producer can run on; the poll yields,
// so the steps finish, with the serial engine's bits.
func TestHandOffsOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer parallel.SetWorkers(parallel.Workers())
	for _, tc := range []struct {
		name  string
		c     class
		cells []cell
	}{
		{"ncf_dp2", class{row: row{id: "recommendation", seed: 3, batch: 64, m: 8, steps: 6}},
			[]cell{{2, 1, "own", 1, 0}}},
		{"transformer_pp2", class{row: row{id: "translation_transformer", seed: 5, batch: 16, m: 4, steps: 2}},
			[]cell{{1, 2, "own", 1, 0}, {2, 2, "own", 1, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, x := range tc.cells {
				reference(t, tc.c).check(t, train(t, tc.c, x, false))
			}
		})
	}
}

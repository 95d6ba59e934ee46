package pipeline_test

import (
	"runtime"
	"testing"

	"repro/internal/leakcheck"
	"repro/internal/pipeline"
)

// TestCloseWhileCellsPoll closes an engine whose cells are inside the
// yield-poll on their start channels (they are born there, and are back in
// it a few µs after a step): every cell goroutine must exit, and a second
// Close must do nothing.
func TestCloseWhileCellsPoll(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, steps := range []int{0, 3} {
		eng, _ := newNCFEngine(t, 2, 8, 64, 1)
		for i := 0; i < steps; i++ {
			eng.StepNext()
		}
		eng.Close()
		eng.Close()
	}
}

// TestHandOffsOnOneProcessor runs the DP-2 and PP-2 identity checks with
// one processor for every goroutine. A consumer that spun instead of
// yielding would hold the only processor its producer can run on; the poll
// yields, so the steps finish, with the serial engine's bits.
func TestHandOffsOnOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	t.Run("ncf_dp2", func(t *testing.T) {
		run := func(workers int) ([]float64, []float64) {
			eng, _ := newNCFEngine(t, workers, 8, 64, 3)
			defer eng.Close()
			var losses []float64
			for s := 0; s < 6; s++ {
				losses = append(losses, eng.StepNext())
			}
			return flatParamValues(eng.Params()), losses
		}
		wantParams, wantLosses := run(1)
		gotParams, gotLosses := run(2)
		for s := range wantLosses {
			if gotLosses[s] != wantLosses[s] {
				t.Fatalf("step %d loss %g, serial %g", s, gotLosses[s], wantLosses[s])
			}
		}
		for i := range wantParams {
			if gotParams[i] != wantParams[i] {
				t.Fatalf("param element %d = %g, serial %g", i, gotParams[i], wantParams[i])
			}
		}
	})

	t.Run("transformer_pp2", func(t *testing.T) {
		run := func(stages, workers int) (*pipeline.Engine, []float64) {
			eng := newTransformerPipeline(t, stages, workers, 4, 16, pipeline.OneFOneB, 5)
			var losses []float64
			for s := 0; s < 2; s++ {
				losses = append(losses, eng.StepNext())
			}
			return eng, losses
		}
		serial, wantLosses := run(1, 1)
		defer serial.Close()
		want := paramsByName(serial.Params())
		for _, workers := range []int{1, 2} {
			eng, losses := run(2, workers)
			for s := range wantLosses {
				if losses[s] != wantLosses[s] {
					t.Fatalf("K=%d: step %d loss %g, one stage %g", workers, s, losses[s], wantLosses[s])
				}
			}
			requireSameParams(t, "PP-2 on one processor", eng.Params(), want)
			eng.Close()
		}
	})
}

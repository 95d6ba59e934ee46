package pipeline_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

// TestEngineOneFabricCascade kills one cell of an in-process grid in the
// middle of a step and requires every other cell to come back with a typed
// *transport.PeerError inside a bound, then Close to leave no goroutine
// behind. All the cells' lanes, ring and boundary, are on one fabric, so one
// Fail of the dead cell's rank reaches them all. The DP-2 row is the shape
// whose cells had no boundary mesh to fail before the grid was one fabric;
// the hybrid row needs the failure to cross from a boundary lane to the
// other replica's ring.
func TestEngineOneFabricCascade(t *testing.T) {
	boom := errors.New("injected cell death")
	for _, tc := range []struct {
		name  string
		cells int
		build func(t *testing.T) *pipeline.Engine
	}{
		{"ncf_dp2", 2, func(t *testing.T) *pipeline.Engine {
			eng := newEngine(t, "recommendation", shape(2, 1, 8, 64, 1))
			return eng
		}},
		{"transformer_pp2", 2, func(t *testing.T) *pipeline.Engine {
			return newEngine(t, "translation_transformer", shape(1, 2, 4, 16, 1))
		}},
		{"resnet_dp2xpp2", 4, func(t *testing.T) *pipeline.Engine {
			eng := newEngine(t, "image_classification", shape(2, 2, 4, 32, 1))
			return eng
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer leakcheck.Check(t)()
			eng := tc.build(t)
			defer eng.Close()
			if eng.StepNext(); eng.Err() != nil {
				t.Fatalf("healthy step failed: %v", eng.Err())
			}

			done := make(chan []error, 1)
			go func() { done <- eng.StepFailing(0, 0, boom) }()
			var errs []error
			select {
			case errs = <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("a cell is still blocked 20 s after cell (0, 0) died")
			}
			if len(errs) != tc.cells {
				t.Fatalf("%d cells reported, want %d", len(errs), tc.cells)
			}
			if errs[0] != boom {
				t.Fatalf("the dead cell reported %v, want its cause", errs[0])
			}
			for rank, err := range errs[1:] {
				var pe *transport.PeerError
				if !errors.As(err, &pe) || !errors.Is(err, boom) {
					t.Errorf("rank %d returned %v; want a *transport.PeerError wrapping the dead cell's cause", rank+1, err)
				}
			}
			if eng.StepNext(); eng.Err() == nil {
				t.Error("the engine stepped again after a cell died")
			}
		})
	}
}

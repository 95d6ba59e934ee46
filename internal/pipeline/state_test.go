package pipeline_test

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// TestPPRestoreValidation checks structural mismatches are rejected.
func TestPPRestoreValidation(t *testing.T) {
	eng := newEngine(t, "image_classification", shape(1, 2, 4, 16, "", 3))
	defer eng.Close()
	eng.StepNext()
	st := eng.CaptureTrainState()

	noParams := *st
	noParams.Params = nil
	if err := eng.RestoreTrainState(&noParams); err == nil {
		t.Error("accepted state without parameters")
	}
	shortOpts := *st
	shortOpts.Opts = st.Opts[:1]
	if err := eng.RestoreTrainState(&shortOpts); err == nil {
		t.Error("accepted state with missing stage optimizer states")
	}
	noOpt := *st
	noOpt.Opts = nil
	if err := eng.RestoreTrainState(&noOpt); err == nil {
		t.Error("accepted state without optimizer state")
	}
	noLoader := *st
	noLoader.Loader = nil
	if err := eng.RestoreTrainState(&noLoader); err == nil {
		t.Error("accepted state without loader position")
	}
	if err := eng.RestoreTrainState(st); err != nil {
		t.Errorf("rejected valid state: %v", err)
	}
}

// A refused state must leave the engine exactly as it was. The case is
// reachable: a PP transformer checkpoint written at another cut (before
// the cut moved to sublayer boundaries, or at another stage count) holds
// the same parameters in a different stage order, a serial NCF checkpoint
// of the loop the engine replaced carries its negative-sampling stream,
// and the supervisor that meets the refusal falls back to an older set on
// the SAME engine. Each victim is offered states that differ from a good
// one in one way each (a parameter order permuted near the end of the
// list, the last optimizer slot short, a loader order of another dataset,
// one optimizer state too many, a loss-scale position where the regime
// has none or none where it has one, a stream the engine does not own);
// after the refusals its parameter digest is
// unchanged and it keeps stepping bit for bit with a twin that never saw
// them.
func TestPPRestoreRefusedLeavesEngineUntouched(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *pipeline.Engine
	}{
		{"transformer_pp2", func() *pipeline.Engine {
			return newEngine(t, "translation_transformer", shape(1, 2, 4, 16, pipeline.OneFOneB, 5))
		}},
		{"ncf_serial", func() *pipeline.Engine { return newEngine(t, "recommendation", shape(1, 1, 1, 64, "", 5)) }},
		{"ncf_serial_bf16+mp", func() *pipeline.Engine {
			cfg := shape(1, 1, 1, 64, "", 5)
			cfg.Numerics.Compute = tensor.BFloat16
			return newEngine(t, "recommendation", cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			victim, twin := tc.build(), tc.build()
			defer victim.Close()
			defer twin.Close()
			victim.StepNext()
			twin.StepNext()
			st := victim.CaptureTrainState()
			victim.StepNext() // every parameter now differs from the captured state
			twin.StepNext()

			digest := func(e *pipeline.Engine) string {
				d := grid.NewDigest()
				d.Add(e.Params())
				return d.Sum()
			}
			before := digest(victim)

			// Swap two parameters near the end: everything before them
			// matches, so a check-as-you-copy restore would have overwritten
			// most of the model before it noticed.
			params := victim.Params()
			i, j := len(params)-5, len(params)-2
			if params[i].Name == params[j].Name {
				t.Fatalf("test needs two distinct parameters, got %q twice", params[i].Name)
			}
			last := len(st.Opts) - 1
			short := st.Opts[last]
			short.Slots = append(short.Slots[:0:0], short.Slots...)
			short.Slots[len(short.Slots)-1] = short.Slots[len(short.Slots)-1][1:]
			order := *st.Loader
			order.Order = order.Order[1:]

			for _, row := range []struct {
				name   string
				tamper func(*models.TrainState)
				want   string // substring of the error
			}{
				{"permuted parameter order", func(s *models.TrainState) {
					s.Params = &models.Snapshot{Benchmark: st.Params.Benchmark, Params: append([]models.SnapParam(nil), st.Params.Params...)}
					s.Params.Params[i], s.Params.Params[j] = s.Params.Params[j], s.Params.Params[i]
				}, params[i].Name},
				{"short optimizer slot", func(s *models.TrainState) {
					s.Opts = append(append(s.Opts[:0:0], st.Opts[:last]...), short)
				}, ""},
				{"loader order of another dataset", func(s *models.TrainState) { s.Loader = &order }, ""},
				{"one optimizer state too many", func(s *models.TrainState) {
					s.Opts = append(s.Opts[:len(s.Opts):len(s.Opts)], s.Opts[0])
				}, "optimizer states"},
				{"the other regime's loss-scale presence", func(s *models.TrainState) {
					if s.MP = nil; st.MP == nil {
						s.MP = &precision.MPState{Scale: 1}
					}
				}, "mixed-precision"},
				{"a stream the engine does not own", func(s *models.TrainState) {
					s.RNGs = []models.RNGEntry{{Label: "ncf_negative_sampling"}}
				}, `"ncf_negative_sampling"`},
			} {
				bad := *st
				row.tamper(&bad)
				err := victim.RestoreTrainState(&bad)
				if err == nil {
					t.Fatalf("%s: state accepted", row.name)
				}
				if !strings.Contains(err.Error(), row.want) {
					t.Fatalf("%s: error %q does not name %s", row.name, err, row.want)
				}
				if got := digest(victim); got != before {
					t.Fatalf("%s: refused restore changed the parameters: digest %s, was %s", row.name, got, before)
				}
			}
			for s := 0; s < 2; s++ {
				if got, want := victim.StepNext(), twin.StepNext(); got != want {
					t.Fatalf("step %d after the refusals: loss %v, untouched twin %v", s, got, want)
				}
			}
			if got, want := digest(victim), digest(twin); got != want {
				t.Fatalf("after the refusals the engine diverged from its twin: digest %s vs %s", got, want)
			}

			// The untampered state still restores.
			if err := victim.RestoreTrainState(st); err != nil {
				t.Fatalf("rejected valid state: %v", err)
			}
		})
	}
}

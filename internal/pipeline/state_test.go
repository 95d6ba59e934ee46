package pipeline_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// TestPPRestoreRefusedLeavesEngineUntouched is the restore refusal table.
// A refused state must leave the engine exactly as it was. The case is
// reachable: a PP transformer checkpoint written at another cut (before
// the cut moved to sublayer boundaries, or at another stage count) holds
// the same parameters in a different stage order, a serial NCF checkpoint
// of the loop the engine replaced carries its negative-sampling stream,
// and the supervisor that meets the refusal falls back to an older set on
// the SAME engine. Each victim has trained one step past a good state and
// is offered copies of it that differ in one way each; every copy is
// refused with an error naming what is wrong, after each refusal the
// victim's own state (parameters and moments by bit pattern, loader
// cursor, step and epoch counters, loss-scale position) is what it was,
// and afterwards it keeps stepping bit for bit with a twin that never saw
// the refusals. Its parameters, moments, loader cursor and step counter
// all differ from the good state's, so a restore that writes any of them
// before its last check fails a row.
func TestPPRestoreRefusedLeavesEngineUntouched(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *pipeline.Engine
	}{
		{"transformer_pp2", func() *pipeline.Engine {
			return newEngine(t, "translation_transformer", shape(1, 2, 4, 16, 5))
		}},
		{"ncf_serial", func() *pipeline.Engine { return newEngine(t, "recommendation", shape(1, 1, 1, 64, 5)) }},
		{"ncf_serial_bf16+mp", func() *pipeline.Engine {
			cfg := shape(1, 1, 1, 64, 5)
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
			victim.StepNext() // every parameter, moment and the cursor now differ from st
			twin.StepNext()
			before := victim.CaptureTrainState()

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
				{"no parameter snapshot", func(s *models.TrainState) { s.Params = nil }, "no parameter snapshot"},
				{"permuted parameter order", func(s *models.TrainState) {
					s.Params = &models.Snapshot{Benchmark: st.Params.Benchmark, Params: append([]models.SnapParam(nil), st.Params.Params...)}
					s.Params.Params[i], s.Params.Params[j] = s.Params.Params[j], s.Params.Params[i]
				}, params[i].Name},
				{"no optimizer state", func(s *models.TrainState) { s.Opts = nil }, "optimizer states"},
				{"one stage's optimizer state missing", func(s *models.TrainState) { s.Opts = s.Opts[:last] }, "optimizer states"},
				{"one optimizer state too many", func(s *models.TrainState) {
					s.Opts = append(s.Opts[:len(s.Opts):len(s.Opts)], s.Opts[0])
				}, "optimizer states"},
				{"short optimizer slot", func(s *models.TrainState) {
					s.Opts = append(append(s.Opts[:0:0], st.Opts[:last]...), short)
				}, "slot"},
				{"no loader position", func(s *models.TrainState) { s.Loader = nil }, "no loader position"},
				{"loader order of another dataset", func(s *models.TrainState) { s.Loader = &order }, "order entries"},
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
				if now := victim.CaptureTrainState(); !reflect.DeepEqual(now, before) {
					t.Fatalf("%s: the refused restore changed the engine's parameters, moments, loader cursor or counters (step/epoch %d/%d, was %d/%d)",
						row.name, now.Step, now.Epoch, before.Step, before.Epoch)
				}
			}
			for s := 0; s < 2; s++ {
				if got, want := victim.StepNext(), twin.StepNext(); got != want {
					t.Fatalf("step %d after the refusals: loss %v, untouched twin %v", s, got, want)
				}
			}
			if got, want := nameDigest(t, victim), nameDigest(t, twin); got != want {
				t.Fatalf("after the refusals the engine diverged from its twin: digest %s vs %s", got, want)
			}

			// The untampered state still restores.
			if err := victim.RestoreTrainState(st); err != nil {
				t.Fatalf("rejected valid state: %v", err)
			}
		})
	}
}

package pipeline_test

import (
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/grid"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// throughDisk writes st as a checkpoint file and loads it back: what
// lands on disk is what resumes.
func throughDisk(t *testing.T, st *models.TrainState) *models.TrainState {
	t.Helper()
	dir := t.TempDir()
	w, err := ckpt.NewWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Write(st, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	loaded, err := ckpt.LoadAt(dir, st.Step, 0)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDPResumeBitIdentity is the data-parallel resume contract: capture at
// step t, serialize through the checkpoint format, restore into a freshly
// built engine, and the continuation is bit-identical to the
// uninterrupted run — losses, parameters and, in the mixed regime, the
// loss-scale position. The mixed rows start three good steps short of a
// scale growth (captured, edited and restored before the first step), so
// by the capture the scale has left its initial value and a resume that
// drops the MP state ends somewhere else. The serial rows are K = M = 1, the
// engine every serial run trains on. Every row is core's engine for its
// benchmark at the reference batch (NCF's is 64); the GNMT row resumes
// after its first epoch, through the Adam state its clipped optimizer
// forwards.
func TestDPResumeBitIdentity(t *testing.T) {
	const (
		seed  = 11
		after = 7 // steps run past the capture
	)
	mixed := precision.Numerics{Compute: tensor.BFloat16}
	initScale := precision.NewMP(nil).Scale()
	for _, tc := range []struct {
		name                 string
		id                   string
		workers, microshards int
		num                  precision.Numerics
		stopAt               int // capture step; 0 is the end of the first epoch
	}{
		{"f64", "recommendation", 2, 8, precision.Numerics{}, 7},
		{"bf16+mp", "recommendation", 2, 8, mixed, 7},
		{"serial_f64", "recommendation", 1, 1, precision.Numerics{}, 7},
		{"serial_bf16+mp", "recommendation", 1, 1, mixed, 7},
		{"translation_gnmt", "translation_gnmt", 2, 2, precision.Numerics{}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newCoreEngine(t, tc.id, tc.workers, tc.microshards, seed, tc.num)
			defer ref.Close()
			if tc.num.Mixed() {
				st := ref.CaptureTrainState()
				st.MP.Good = 197 // the recipe grows the scale after 200 good steps
				if err := ref.RestoreTrainState(st); err != nil {
					t.Fatalf("RestoreTrainState: %v", err)
				}
			}
			stop := tc.stopAt
			if stop == 0 {
				ref.TrainEpoch()
				stop = ref.Steps()
			}
			for ref.Steps() < stop {
				ref.StepNext()
			}
			st := ref.CaptureTrainState()
			if st.Step != stop {
				t.Fatalf("captured step = %d, want %d", st.Step, stop)
			}
			if tc.num.Mixed() && (st.MP == nil || st.MP.Scale == initScale) {
				t.Fatalf("captured MP state %+v: want a loss scale that has left %g", st.MP, initScale)
			}

			loaded := throughDisk(t, st)

			var refLosses []float64
			for s := 0; s < after; s++ {
				refLosses = append(refLosses, ref.StepNext())
			}
			refParams := flatParamValues(ref.Params())

			res := newCoreEngine(t, tc.id, tc.workers, tc.microshards, seed, tc.num)
			defer res.Close()
			if err := res.RestoreTrainState(loaded); err != nil {
				t.Fatalf("RestoreTrainState: %v", err)
			}
			if res.Steps() != stop {
				t.Fatalf("restored engine at step %d, want %d", res.Steps(), stop)
			}
			if !res.InSync() {
				t.Fatal("restored replicas are not bit-identical")
			}
			for i, want := range refLosses {
				if got := res.StepNext(); got != want {
					t.Fatalf("resumed step %d loss = %v, reference %v", stop+i, got, want)
				}
			}
			gotParams := flatParamValues(res.Params())
			for i := range refParams {
				if gotParams[i] != refParams[i] {
					t.Fatalf("param element %d = %g, reference %g (resume not bit-identical)", i, gotParams[i], refParams[i])
				}
			}
			if tc.num.Mixed() {
				if got, want := *res.CaptureTrainState().MP, *ref.CaptureTrainState().MP; got != want {
					t.Fatalf("resumed MP state %+v, reference %+v", got, want)
				}
			}

			// A state from the other regime is refused, not half-applied.
			other := *loaded
			if tc.num.Mixed() {
				other.MP = nil
			} else {
				other.MP = &precision.MPState{Scale: 1}
			}
			if err := res.RestoreTrainState(&other); err == nil {
				t.Fatal("accepted a train state whose mixed-precision presence differs from the engine's")
			}
		})
	}
}

// TestPPResumeBitIdentity is the pipeline-parallel resume contract:
// capture a hybrid DP×PP engine at step t (worker-0 stage gather),
// serialize through the checkpoint format, restore into a freshly built
// engine, and the continuation is bit-identical to the uninterrupted run.
func TestPPResumeBitIdentity(t *testing.T) {
	const (
		stages       = 2
		workers      = 2
		microbatches = 4
		batch        = 16
		seed         = 5
		stopAt       = 4
		total        = 8
	)
	ref, refReps := newImagePipeline(t, stages, workers, microbatches, batch, "", seed)
	defer ref.Close()
	_ = refReps
	for s := 0; s < stopAt; s++ {
		ref.StepNext()
	}
	st := ref.CaptureTrainState()
	if st.Step != stopAt {
		t.Fatalf("captured step = %d, want %d", st.Step, stopAt)
	}
	if len(st.Opts) != stages {
		t.Fatalf("captured %d optimizer states, want one per stage (%d)", len(st.Opts), stages)
	}

	loaded := throughDisk(t, st)

	var refLosses []float64
	for s := stopAt; s < total; s++ {
		refLosses = append(refLosses, ref.StepNext())
	}
	refParams := flatParamValues(ref.Params())

	res, _ := newImagePipeline(t, stages, workers, microbatches, batch, "", seed)
	defer res.Close()
	if err := res.RestoreTrainState(loaded); err != nil {
		t.Fatalf("RestoreTrainState: %v", err)
	}
	if res.Steps() != stopAt {
		t.Fatalf("restored engine at step %d, want %d", res.Steps(), stopAt)
	}
	if !res.InSync() {
		t.Fatal("restored stage replicas are not bit-identical across workers")
	}
	for i, want := range refLosses {
		if got := res.StepNext(); got != want {
			t.Fatalf("resumed step %d loss = %v, reference %v", stopAt+i, got, want)
		}
	}
	gotParams := flatParamValues(res.Params())
	for i := range refParams {
		if gotParams[i] != refParams[i] {
			t.Fatalf("param element %d = %g, reference %g (resume not bit-identical)", i, gotParams[i], refParams[i])
		}
	}
}

// TestPPRestoreValidation checks structural mismatches are rejected.
func TestPPRestoreValidation(t *testing.T) {
	eng, _ := newImagePipeline(t, 2, 1, 4, 16, "", 3)
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
// one optimizer state too many, a mixed-precision position, a stream the
// engine does not own); after the refusals its parameter digest is
// unchanged and it keeps stepping bit for bit with a twin that never saw
// them.
func TestPPRestoreRefusedLeavesEngineUntouched(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *pipeline.Engine
	}{
		{"transformer_pp2", func() *pipeline.Engine { return newTransformerPipeline(t, 2, 1, 4, 16, pipeline.OneFOneB, 5) }},
		{"ncf_serial", func() *pipeline.Engine { eng, _ := newNCFEngine(t, 1, 1, 64, 5); return eng }},
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
				{"mixed-precision state into a full-precision engine", func(s *models.TrainState) { s.MP = &precision.MPState{Scale: 1} }, "mixed-precision"},
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

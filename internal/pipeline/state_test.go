package pipeline_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/grid"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// TestDPResumeBitIdentity is the data-parallel resume contract: capture at
// step t, serialize through the checkpoint format, restore into a freshly
// built engine, and the continuation is bit-identical to the
// uninterrupted run — losses, parameters and, in the mixed regime, the
// loss-scale position. The mixed row grows its scale every 3 good steps,
// so by the capture it has left its initial value and a resume that drops
// the MP state ends somewhere else.
func TestDPResumeBitIdentity(t *testing.T) {
	const (
		workers     = 2
		microshards = 8
		batch       = 64
		seed        = 11
		stopAt      = 7
		total       = 14
	)
	mixed := precision.NumericsFor(tensor.BFloat16)
	mixed.MP.GrowthInterval = 3
	for _, tc := range []struct {
		name string
		num  precision.Numerics
	}{
		{"f64", precision.Numerics{}},
		{"bf16+mp", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newNCFEngineNumerics(t, workers, microshards, batch, seed, tc.num)
			defer ref.Close()
			for s := 0; s < stopAt; s++ {
				ref.StepNext()
			}
			st := ref.CaptureTrainState()
			if st.Step != stopAt {
				t.Fatalf("captured step = %d, want %d", st.Step, stopAt)
			}
			if tc.num.Mixed && (st.MP == nil || st.MP.Scale == tc.num.MP.InitScale) {
				t.Fatalf("captured MP state %+v: want a loss scale that has left %g", st.MP, tc.num.MP.InitScale)
			}

			// Round-trip through the serialized checkpoint: what lands on disk
			// is what resumes.
			var buf bytes.Buffer
			if _, err := ckpt.Save(&buf, st); err != nil {
				t.Fatalf("ckpt.Save: %v", err)
			}
			loaded, err := ckpt.Load(&buf)
			if err != nil {
				t.Fatalf("ckpt.Load: %v", err)
			}

			var refLosses []float64
			for s := stopAt; s < total; s++ {
				refLosses = append(refLosses, ref.StepNext())
			}
			refParams := flatParamValues(ref.Params())

			res := newNCFEngineNumerics(t, workers, microshards, batch, seed, tc.num)
			defer res.Close()
			if err := res.RestoreTrainState(loaded); err != nil {
				t.Fatalf("RestoreTrainState: %v", err)
			}
			if res.Steps() != stopAt {
				t.Fatalf("restored engine at step %d, want %d", res.Steps(), stopAt)
			}
			if !res.InSync() {
				t.Fatal("restored replicas are not bit-identical")
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
			if tc.num.Mixed {
				if got, want := *res.CaptureTrainState().MP, *ref.CaptureTrainState().MP; got != want {
					t.Fatalf("resumed MP state %+v, reference %+v", got, want)
				}
			}

			// A state from the other regime is refused, not half-applied.
			other := *loaded
			if tc.num.Mixed {
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

	var buf bytes.Buffer
	if _, err := ckpt.Save(&buf, st); err != nil {
		t.Fatalf("ckpt.Save: %v", err)
	}
	loaded, err := ckpt.Load(&buf)
	if err != nil {
		t.Fatalf("ckpt.Load: %v", err)
	}

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
// the same parameters in a different stage order, and the supervisor that
// meets the refusal falls back to an older set on the SAME engine. The
// victim here is restored from a state whose parameter order is permuted
// late in the list, then from one whose last optimizer slot is short;
// after both refusals its parameter digest is unchanged and it keeps
// stepping bit for bit with a twin that never saw them.
func TestPPRestoreRefusedLeavesEngineUntouched(t *testing.T) {
	build := func() *pipeline.Engine {
		return newTransformerPipeline(t, 2, 1, 4, 16, pipeline.OneFOneB, 5)
	}
	victim, twin := build(), build()
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

	// Swap two parameters near the end: everything before them matches, so
	// a check-as-you-copy restore would have overwritten most of the model
	// before it noticed.
	params := victim.Params()
	i, j := len(params)-5, len(params)-2
	if params[i].Name == params[j].Name {
		t.Fatalf("test needs two distinct parameters, got %q twice", params[i].Name)
	}
	permuted := *st
	permuted.Params = &models.Snapshot{Benchmark: st.Params.Benchmark, Params: append([]models.SnapParam(nil), st.Params.Params...)}
	permuted.Params.Params[i], permuted.Params.Params[j] = permuted.Params.Params[j], permuted.Params.Params[i]
	err := victim.RestoreTrainState(&permuted)
	if err == nil {
		t.Fatal("accepted a state whose parameter order is permuted")
	}
	if !strings.Contains(err.Error(), params[i].Name) {
		t.Fatalf("error %q does not name the first mismatching parameter %q", err, params[i].Name)
	}
	if got := digest(victim); got != before {
		t.Fatalf("refused restore changed the parameters: digest %s, was %s", got, before)
	}

	// Good parameters, but the last stage's last optimizer slot is short:
	// neither the parameters nor stage 0's optimizer may have been written.
	short := *st
	short.Opts = append(short.Opts[:0:0], st.Opts...)
	last := &short.Opts[len(short.Opts)-1]
	last.Slots = append(last.Slots[:0:0], last.Slots...)
	last.Slots[len(last.Slots)-1] = last.Slots[len(last.Slots)-1][1:]
	if err := victim.RestoreTrainState(&short); err == nil {
		t.Fatal("accepted a state with a short optimizer slot")
	}
	if got := digest(victim); got != before {
		t.Fatalf("refused restore changed the parameters: digest %s, was %s", got, before)
	}
	// Good parameters and optimizer states, but a loader order one entry
	// short (another dataset's): the loader is asked before anything is
	// written.
	badLoader := *st
	order := *st.Loader
	order.Order = order.Order[1:]
	badLoader.Loader = &order
	if err := victim.RestoreTrainState(&badLoader); err == nil {
		t.Fatal("accepted a state with a short loader order")
	}
	if got := digest(victim); got != before {
		t.Fatalf("refused restore changed the parameters: digest %s, was %s", got, before)
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
}

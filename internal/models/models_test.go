package models

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// --- detection utility unit tests ---

func TestEncodeDecodeBoxInverse(t *testing.T) {
	a := Anchor{CX: 8, CY: 8, W: 6, H: 4}
	g := datasets.Box{X1: 5, Y1: 6, X2: 11, Y2: 12}
	d := EncodeBox(a, g)
	back := DecodeBox(a, d)
	if math.Abs(back.X1-g.X1) > 1e-9 || math.Abs(back.Y2-g.Y2) > 1e-9 {
		t.Fatalf("decode(encode) != identity: %+v vs %+v", back, g)
	}
}

func TestEncodeDecodeInverseProperty(t *testing.T) {
	rng := tensor.NewRNG(1)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		a := Anchor{CX: r.Uniform(2, 14), CY: r.Uniform(2, 14), W: r.Uniform(2, 8), H: r.Uniform(2, 8)}
		x1, y1 := r.Uniform(0, 10), r.Uniform(0, 10)
		g := datasets.Box{X1: x1, Y1: y1, X2: x1 + r.Uniform(1, 6), Y2: y1 + r.Uniform(1, 6)}
		back := DecodeBox(a, EncodeBox(a, g))
		return math.Abs(back.X1-g.X1) < 1e-6 && math.Abs(back.Y1-g.Y1) < 1e-6 &&
			math.Abs(back.X2-g.X2) < 1e-6 && math.Abs(back.Y2-g.Y2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGridAnchorsLayoutMatchesSpatialRows(t *testing.T) {
	shapes := []AnchorShape{{W: 4, H: 4}, {W: 6, H: 6}}
	anchors := GridAnchors(2, 8, shapes)
	if len(anchors) != 2*2*2 {
		t.Fatalf("anchor count %d", len(anchors))
	}
	// Raster order: (y0,x0,s0), (y0,x0,s1), (y0,x1,s0)...
	if anchors[0].CX != 4 || anchors[0].W != 4 {
		t.Fatalf("anchor 0: %+v", anchors[0])
	}
	if anchors[1].W != 6 {
		t.Fatal("second anchor should be the second shape at the same cell")
	}
	if anchors[2].CX != 12 || anchors[2].CY != 4 {
		t.Fatalf("anchor 2 should advance x: %+v", anchors[2])
	}
}

func TestMatchAnchorsForcedMatch(t *testing.T) {
	// A GT box too small to reach the positive threshold must still be
	// matched to its best anchor.
	anchors := GridAnchors(2, 8, []AnchorShape{{W: 8, H: 8}})
	gt := []datasets.Box{{X1: 0, Y1: 0, X2: 2, Y2: 2, Class: 1}}
	match := MatchAnchors(anchors, gt, 0.5, 0.4)
	found := false
	for _, m := range match {
		if m == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("best anchor must be force-matched to the GT")
	}
}

func TestNMSSuppressesOverlaps(t *testing.T) {
	boxes := []ScoredBox{
		{Box: datasets.Box{X1: 0, Y1: 0, X2: 4, Y2: 4}, Score: 0.9},
		{Box: datasets.Box{X1: 0.5, Y1: 0.5, X2: 4.5, Y2: 4.5}, Score: 0.8}, // heavy overlap
		{Box: datasets.Box{X1: 10, Y1: 10, X2: 14, Y2: 14}, Score: 0.7},
	}
	kept := NMS(boxes, 0.5, 10)
	if len(kept) != 2 {
		t.Fatalf("NMS kept %d, want 2", len(kept))
	}
	if kept[0].Score != 0.9 || kept[1].Score != 0.7 {
		t.Fatalf("NMS order: %+v", kept)
	}
}

// Property: NMS output is sorted by score, within the keep bound, and no
// two survivors overlap above the threshold.
func TestNMSInvariantsProperty(t *testing.T) {
	rng := tensor.NewRNG(2)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		n := 1 + r.Intn(20)
		boxes := make([]ScoredBox, n)
		for i := range boxes {
			x1, y1 := r.Uniform(0, 12), r.Uniform(0, 12)
			boxes[i] = ScoredBox{
				Box:   datasets.Box{X1: x1, Y1: y1, X2: x1 + r.Uniform(1, 5), Y2: y1 + r.Uniform(1, 5)},
				Score: r.Float64(),
			}
		}
		keep := 1 + r.Intn(8)
		out := NMS(boxes, 0.4, keep)
		if len(out) > keep {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Score > out[i-1].Score {
				return false
			}
		}
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if datasets.IoU(out[i].Box, out[j].Box) >= 0.4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// --- GNMT's clipped optimizer ---

// In the mixed regime precision.MP.Apply divides the loss scale out of the
// gradient in place before the clip runs: a gradient scaled by 2^k clips to the update bits
// of the unscaled gradient.
func TestClippedSeesTheUnscaledGradient(t *testing.T) {
	grad := []float64{30, -40, 0.125, 7} // norm ≈ 50.5, ten times the cap
	step := func(k int) []float64 {
		p := autograd.NewParam("w", tensor.FromSlice([]float64{1, -2, 3, 0.5}, 4))
		params := []*autograd.Param{p}
		c := &clipped{Stateful: opt.NewAdam(params, 0.01, 0.9, 0.999, 1e-8, 0), params: params, maxNorm: 5}
		if k == 0 {
			copy(p.Grad.Data, grad)
			c.Step()
			return p.Value.Data
		}
		scale := math.Ldexp(1, k)
		mp := precision.NewMP(params)
		mp.SetState(precision.MPState{Scale: scale})
		mp.BeginStep()
		for i, g := range grad {
			p.Grad.Data[i] = g * scale
		}
		if !mp.Apply(c) {
			t.Fatalf("2^%d: the scaled gradient overflowed", k)
		}
		return p.Value.Data
	}
	want := step(0)
	for _, k := range []int{1, 15} {
		for i, v := range step(k) {
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("2^%d: element %d updated to %v, unscaled %v", k, i, v, want[i])
			}
		}
	}
}

// --- MiniGo helper unit tests ---

func TestSymIndexBijectionProperty(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw % 8)
		seen := map[int]bool{}
		for p := 0; p < 25; p++ {
			q := symIndex(p, 5, k)
			if q < 0 || q >= 25 || seen[q] {
				return false
			}
			seen[q] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 32}); err != nil {
		t.Fatal(err)
	}
}

func TestAugmentExamplePreservesMass(t *testing.T) {
	rng := tensor.NewRNG(3)
	feats := make([]float64, 3*25)
	policy := make([]float64, 26)
	for i := range feats {
		feats[i] = rng.Float64()
	}
	sum := 0.0
	for i := range policy {
		policy[i] = rng.Float64()
		sum += policy[i]
	}
	for k := 0; k < 8; k++ {
		f2, p2 := augmentExample(feats, policy, 5, k)
		s2 := 0.0
		for _, v := range p2 {
			s2 += v
		}
		if math.Abs(s2-sum) > 1e-9 {
			t.Fatalf("sym %d changed policy mass", k)
		}
		if p2[25] != policy[25] {
			t.Fatalf("sym %d moved the pass slot", k)
		}
		fs, f2s := 0.0, 0.0
		for i := range feats {
			fs += feats[i]
			f2s += f2[i]
		}
		if math.Abs(fs-f2s) > 1e-9 {
			t.Fatalf("sym %d changed feature mass", k)
		}
	}
}

func TestMaskTargetGrid(t *testing.T) {
	gt := tensor.New(8, 8)
	for y := 2; y < 6; y++ {
		for x := 2; x < 6; x++ {
			gt.Set(1, y, x)
		}
	}
	// Proposal exactly over the filled square: target all ones.
	tgt := maskTargetGrid(gt, datasets.Box{X1: 2, Y1: 2, X2: 6, Y2: 6}, 4)
	for _, v := range tgt {
		if v != 1 {
			t.Fatalf("full-cover mask target: %v", tgt)
		}
	}
	// Proposal over empty area: all zeros.
	tgt0 := maskTargetGrid(gt, datasets.Box{X1: 0, Y1: 0, X2: 2, Y2: 2}, 4)
	for _, v := range tgt0 {
		if v != 0 {
			t.Fatalf("empty mask target: %v", tgt0)
		}
	}
}

// --- model structure and MiniGo integration tests ---
//
// The engine models learn in serial_test.go. MiniGo owns its loop, so its
// training tests live here; under -short they skip or drop the self-play
// epoch, and the slow convergence claim is checked only in full runs.

// shortMTConfig is a quarter-size corpus, cheap to generate.
func shortMTConfig() datasets.MTConfig {
	cfg := datasets.DefaultMTConfig()
	cfg.TrainN, cfg.ValN = 192, 32
	return cfg
}

// Block indices are decimal, so a stack deeper than ten layers still has
// one name per parameter (snapshot restore matches by name), and the
// first ten keep the names every existing snapshot holds.
func TestTransformerParamNamesDistinctBeyondTenLayers(t *testing.T) {
	net := NewTransformer(8, 4, 1, 4, 12, tensor.NewRNG(1))
	seen := map[string]bool{}
	for _, p := range net.Params() {
		if seen[p.Name] {
			t.Fatalf("parameter name %q appears twice in a 12-layer model", p.Name)
		}
		seen[p.Name] = true
	}
	for _, want := range []string{"enc.0.self.wq.w", "dec.9.ln3.gamma", "enc.10.ff1.w", "dec.11.cross.wo.b"} {
		if !seen[want] {
			t.Errorf("12-layer model has no parameter %q", want)
		}
	}
}

// The pipeline's sublayer units partition the model: at every stage count
// the stages' parameters are exactly the model's, each once.
func TestTranslationStagesPartitionParams(t *testing.T) {
	w := NewTranslation(datasets.GenerateMT(shortMTConfig()), DefaultTransformerHParams(), 1)
	for _, s := range []int{1, 2, 5, 12} {
		stages, err := w.PipelineStages(s)
		if err != nil {
			t.Fatalf("S=%d: %v", s, err)
		}
		seen := map[*autograd.Param]bool{}
		for _, st := range stages {
			for _, p := range st.Params() {
				if seen[p] {
					t.Fatalf("S=%d: %q is on two stages", s, p.Name)
				}
				seen[p] = true
			}
		}
		if len(seen) != len(w.Params()) {
			t.Fatalf("S=%d: stages hold %d parameters, the model %d", s, len(seen), len(w.Params()))
		}
	}
	if _, err := w.PipelineStages(13); err == nil {
		t.Fatal("13 stages accepted for a model with 12 units")
	}
	// At PP-2 the cut falls inside the first decoder block, after its
	// self-attention: stage 1 starts with that block's cross-attention.
	stages, _ := w.PipelineStages(2)
	if first := stages[1].Params()[0].Name; first != "dec.0.cross.wq.w" {
		t.Fatalf("PP-2 stage 1 starts at %q, want dec.0.cross.wq.w", first)
	}
}

func TestMiniGoImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("MiniGo self-play needs ~12 epochs (~19s) to show reliable improvement (§2.2.3 variance)")
	}
	w := NewReinforcementLearning(DefaultMiniGoHParams(), 42)
	if len(w.evalFeats) == 0 {
		t.Fatal("oracle reference positions missing")
	}
	before := w.Evaluate()
	for e := 0; e < 12; e++ {
		w.TrainEpoch()
	}
	after := w.Evaluate()
	if after <= before {
		t.Fatalf("move match should improve: %.3f -> %.3f", before, after)
	}
}

func TestMiniGoPredictOneMatchesBatchEval(t *testing.T) {
	w := NewReinforcementLearning(DefaultMiniGoHParams(), 11)
	// The batch/single consistency property holds for any weights; the
	// self-play epoch (~1.6s) just makes them non-trivial, so skip it
	// under -short.
	if !testing.Short() {
		w.TrainEpoch()
	}
	s := w.HP.BoardSize
	// Batch evaluation and single-position prediction must agree.
	b := len(w.evalFeats)
	x := tensor.New(b, 3, s, s)
	for i, f := range w.evalFeats {
		copy(x.Data[i*3*s*s:(i+1)*3*s*s], f)
	}
	tape := autograd.NewTape()
	ctx := nn.NewCtx(tape, false, tensor.NewRNG(1))
	policy, _ := w.Net.Forward(ctx, autograd.Const(x))
	batchPred := policy.Value.ArgMaxRows()
	for i := 0; i < 5; i++ {
		if got := w.predictOne(tensorFrom(w.evalFeats[i], s)); got != batchPred[i] {
			// Batch statistics do not affect eval mode, so these must match.
			t.Fatalf("position %d: single %d vs batch %d", i, got, batchPred[i])
		}
	}
}

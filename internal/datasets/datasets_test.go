package datasets

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestImageGenerationDeterministic(t *testing.T) {
	a := GenerateImages(DefaultImageConfig())
	b := GenerateImages(DefaultImageConfig())
	if !tensor.Equal(a.Train, b.Train, 0) {
		t.Fatal("same seed must generate identical data")
	}
	cfg := DefaultImageConfig()
	cfg.Seed = 99
	c := GenerateImages(cfg)
	if tensor.Equal(a.Train, c.Train, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestImageClassesBalanced(t *testing.T) {
	ds := GenerateImages(DefaultImageConfig())
	counts := map[int]int{}
	for _, l := range ds.TrainLabels {
		counts[l]++
	}
	if len(counts) != ds.Cfg.Classes {
		t.Fatalf("expected %d classes, got %d", ds.Cfg.Classes, len(counts))
	}
	for c, n := range counts {
		if n != ds.Cfg.TrainN/ds.Cfg.Classes {
			t.Fatalf("class %d has %d samples", c, n)
		}
	}
}

func TestImageBatchShapes(t *testing.T) {
	ds := GenerateImages(DefaultImageConfig())
	x, labels := ds.BatchInto(nil, nil, true, []int{0, 5, 10}, nil)
	if x.Shape[0] != 3 || x.Shape[1] != ds.Cfg.Channels || x.Shape[2] != ds.Cfg.Size {
		t.Fatalf("batch shape %v", x.Shape)
	}
	if len(labels) != 3 {
		t.Fatal("labels length")
	}
}

func TestAugmentFlipIsExactMirror(t *testing.T) {
	// With Flip-only augmentation and an RNG forced to flip, the row must
	// be mirrored exactly.
	s := 4
	img := make([]float64, s*s)
	for i := range img {
		img[i] = float64(i)
	}
	// Find an RNG state whose first Float64 < 0.5 (forces a flip).
	var rng *tensor.RNG
	for seed := uint64(0); ; seed++ {
		r := tensor.NewRNG(seed)
		if r.Float64() < 0.5 {
			rng = tensor.NewRNG(seed)
			break
		}
	}
	a := &Augment{Flip: true, RNG: rng}
	orig := append([]float64(nil), img...)
	a.Apply(img, 1, s)
	for y := 0; y < s; y++ {
		for x := 0; x < s; x++ {
			if img[y*s+x] != orig[y*s+(s-1-x)] {
				t.Fatalf("flip not a mirror at (%d,%d)", y, x)
			}
		}
	}
}

func TestIoUCases(t *testing.T) {
	a := Box{X1: 0, Y1: 0, X2: 2, Y2: 2}
	if got := IoU(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self IoU %v", got)
	}
	b := Box{X1: 1, Y1: 1, X2: 3, Y2: 3}
	// intersection 1, union 7
	if got := IoU(a, b); math.Abs(got-1.0/7.0) > 1e-12 {
		t.Fatalf("IoU %v want 1/7", got)
	}
	c := Box{X1: 5, Y1: 5, X2: 6, Y2: 6}
	if IoU(a, c) != 0 {
		t.Fatal("disjoint IoU must be 0")
	}
}

func TestIoUSymmetricProperty(t *testing.T) {
	rng := tensor.NewRNG(4)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		mk := func() Box {
			x1, y1 := r.Uniform(0, 10), r.Uniform(0, 10)
			return Box{X1: x1, Y1: y1, X2: x1 + r.Uniform(0.1, 5), Y2: y1 + r.Uniform(0.1, 5)}
		}
		a, b := mk(), mk()
		iou := IoU(a, b)
		return iou >= 0 && iou <= 1 && math.Abs(iou-IoU(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDetectionGeneration(t *testing.T) {
	ds := GenerateDetection(DefaultDetConfig())
	if len(ds.Train) != ds.Cfg.TrainN || len(ds.Val) != ds.Cfg.ValN {
		t.Fatal("split sizes")
	}
	for i, ex := range ds.Train[:20] {
		if len(ex.Boxes) == 0 {
			t.Fatalf("example %d has no objects", i)
		}
		if len(ex.Boxes) != len(ex.Masks) {
			t.Fatal("boxes and masks must align")
		}
		for j, b := range ex.Boxes {
			if b.Class < 1 || b.Class > ds.Cfg.Classes {
				t.Fatalf("class %d out of range", b.Class)
			}
			if b.X2 <= b.X1 || b.Y2 <= b.Y1 {
				t.Fatal("degenerate box")
			}
			// Mask pixels lie inside the box.
			m := ex.Masks[j]
			for y := 0; y < ds.Cfg.Size; y++ {
				for x := 0; x < ds.Cfg.Size; x++ {
					if m.At(y, x) > 0 {
						if float64(x) < b.X1-1 || float64(x) > b.X2+1 || float64(y) < b.Y1-1 || float64(y) > b.Y2+1 {
							t.Fatal("mask pixel outside its box")
						}
					}
				}
			}
		}
	}
}

func TestDetectionObjectsBarelyOverlap(t *testing.T) {
	ds := GenerateDetection(DefaultDetConfig())
	for _, ex := range ds.Train {
		for i := 0; i < len(ex.Boxes); i++ {
			for j := i + 1; j < len(ex.Boxes); j++ {
				if IoU(ex.Boxes[i], ex.Boxes[j]) > 0.1 {
					t.Fatal("objects should not overlap heavily")
				}
			}
		}
	}
}

func TestBatchImages(t *testing.T) {
	ds := GenerateDetection(DefaultDetConfig())
	x := BatchImages(ds.Val, []int{0, 3})
	if x.Shape[0] != 2 || x.Shape[1] != 3 || x.Shape[2] != ds.Cfg.Size {
		t.Fatalf("shape %v", x.Shape)
	}
	if x.At(1, 0, 0, 0) != ds.Val[3].Image.At(0, 0, 0) {
		t.Fatal("image content mismatch")
	}
}

func TestMTTranslationRule(t *testing.T) {
	ds := GenerateMT(DefaultMTConfig())
	for _, p := range ds.Train[:50] {
		want := Translate(p.Src, ds.perm, ds.Cfg.Reverse)
		if len(want) != len(p.Tgt) {
			t.Fatal("target length mismatch")
		}
		for i := range want {
			if want[i] != p.Tgt[i] {
				t.Fatal("pair violates the transduction rule")
			}
		}
		if p.Tgt[len(p.Tgt)-1] != EOS {
			t.Fatal("target must end with EOS")
		}
	}
}

func TestMTPermutationFixesSpecials(t *testing.T) {
	ds := GenerateMT(DefaultMTConfig())
	perm := ds.perm
	for i := 0; i < FirstWord; i++ {
		if perm[i] != i {
			t.Fatal("special tokens must map to themselves")
		}
	}
	seen := map[int]bool{}
	for _, v := range perm {
		if seen[v] {
			t.Fatal("perm must be a bijection")
		}
		seen[v] = true
	}
}

func TestPadBatchAlignment(t *testing.T) {
	pairs := []MTPair{{Src: []int{5, 6}, Tgt: []int{7, 8, EOS}}}
	src, decIn, labels := PadBatch(pairs, 4, 5)
	if src[0][2] != PAD || src[0][3] != PAD {
		t.Fatal("source padding")
	}
	if decIn[0][0] != BOS {
		t.Fatal("decoder input starts with BOS")
	}
	// decIn is the target shifted right.
	if decIn[0][1] != 7 || decIn[0][2] != 8 {
		t.Fatalf("decoder input shift: %v", decIn[0])
	}
	if labels[0][0] != 7 || labels[0][2] != EOS {
		t.Fatalf("labels: %v", labels[0])
	}
	if labels[0][3] != -1 || labels[0][4] != -1 {
		t.Fatal("padding labels must be ignore (-1)")
	}
}

func TestRecGeneration(t *testing.T) {
	ds := GenerateRec(DefaultRecConfig())
	if ds.Users != 144 || ds.Items != 100 {
		t.Fatalf("kronecker dims: %d users %d items", ds.Users, ds.Items)
	}
	// Each user contributes PosPerUser-1 training interactions.
	if len(ds.Train) != ds.Users*(ds.Cfg.PosPerUser-1) {
		t.Fatalf("train size %d", len(ds.Train))
	}
	for u := 0; u < ds.Users; u++ {
		if !ds.Positive[u][ds.HeldOut[u]] {
			t.Fatal("held-out item must be a positive")
		}
		if len(ds.Positive[u]) != ds.Cfg.PosPerUser {
			t.Fatalf("user %d has %d positives", u, len(ds.Positive[u]))
		}
	}
	// Held-out items never appear in training.
	for _, in := range ds.Train {
		if in.Item == ds.HeldOut[in.User] {
			t.Fatal("held-out item leaked into training")
		}
	}
}

func TestRecNegativeSampling(t *testing.T) {
	ds := GenerateRec(DefaultRecConfig())
	rng := tensor.NewRNG(5)
	for u := 0; u < 10; u++ {
		for _, n := range ds.SampleNegatives(u, 20, rng) {
			if ds.Positive[u][n] {
				t.Fatal("negative sample hit a positive")
			}
		}
	}
}

func TestRecTrainBatchLayout(t *testing.T) {
	ds := GenerateRec(DefaultRecConfig())
	rng := tensor.NewRNG(6)
	users, items, labels := ds.AppendTrainBatch(nil, nil, nil, []int{0, 1}, 3, rng)
	if len(users) != 2*4 || len(items) != len(users) || len(labels) != len(users) {
		t.Fatalf("batch sizes %d/%d/%d", len(users), len(items), len(labels))
	}
	if labels[0] != 1 || labels[1] != 0 {
		t.Fatal("positive then negatives per interaction")
	}
}

func TestRecEvalListsProtocol(t *testing.T) {
	ds := GenerateRec(DefaultRecConfig())
	users, cands := ds.EvalLists(9, tensor.NewRNG(7))
	if len(users) != ds.Users {
		t.Fatal("every user evaluated")
	}
	for i, u := range users {
		if cands[i][0] != ds.HeldOut[u] {
			t.Fatal("held-out item must be candidate 0")
		}
		if len(cands[i]) != 10 {
			t.Fatalf("candidate list length %d", len(cands[i]))
		}
	}
}

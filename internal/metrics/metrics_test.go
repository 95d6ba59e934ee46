package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/datasets"
	"repro/internal/tensor"
)

func TestTop1Accuracy(t *testing.T) {
	if got := Top1Accuracy([]int{1, 2, 3, 4}, []int{1, 2, 0, 4}); got != 0.75 {
		t.Fatalf("accuracy %v", got)
	}
	if Top1Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy")
	}
}

func TestMaskIoU(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	if got := MaskIoU(a, b); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Fatalf("mask IoU %v", got)
	}
	if MaskIoU([]bool{false}, []bool{false}) != 0 {
		t.Fatal("empty masks")
	}
}

func box(x1, y1, x2, y2 float64, cls int) datasets.Box {
	return datasets.Box{X1: x1, Y1: y1, X2: x2, Y2: y2, Class: cls}
}

func TestAPPerfectDetector(t *testing.T) {
	gts := []GroundTruth{
		{ImageID: 0, Box: box(0, 0, 2, 2, 1)},
		{ImageID: 1, Box: box(1, 1, 3, 3, 1)},
	}
	dets := []Detection{
		{ImageID: 0, Box: box(0, 0, 2, 2, 1), Score: 0.9},
		{ImageID: 1, Box: box(1, 1, 3, 3, 1), Score: 0.8},
	}
	if got := APAtIoU(dets, gts, 0.5, false); math.Abs(got-1) > 1e-12 {
		t.Fatalf("perfect AP %v", got)
	}
}

func TestAPRankingSensitivity(t *testing.T) {
	gts := []GroundTruth{{ImageID: 0, Box: box(0, 0, 2, 2, 1)}}
	// A false positive ranked ABOVE the true positive halves precision at
	// the recall point: AP = 0.5.
	dets := []Detection{
		{ImageID: 0, Box: box(5, 5, 7, 7, 1), Score: 0.9},
		{ImageID: 0, Box: box(0, 0, 2, 2, 1), Score: 0.8},
	}
	if got := APAtIoU(dets, gts, 0.5, false); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AP with leading FP: %v want 0.5", got)
	}
	// Ranked below, the FP does not matter: AP = 1.
	dets[0].Score, dets[1].Score = 0.1, 0.8
	if got := APAtIoU(dets, gts, 0.5, false); math.Abs(got-1) > 1e-12 {
		t.Fatalf("AP with trailing FP: %v want 1", got)
	}
}

func TestAPDuplicateDetectionsPenalized(t *testing.T) {
	gts := []GroundTruth{{ImageID: 0, Box: box(0, 0, 2, 2, 1)}}
	dets := []Detection{
		{ImageID: 0, Box: box(0, 0, 2, 2, 1), Score: 0.9},
		{ImageID: 0, Box: box(0, 0, 2, 2, 1), Score: 0.8}, // duplicate
	}
	// Greedy matching: second detection is a false positive, but ranked
	// below the TP so AP stays 1; flip the scores and AP drops.
	if got := APAtIoU(dets, gts, 0.5, false); got != 1 {
		t.Fatalf("trailing duplicate: %v", got)
	}
}

func TestMeanAPAveragesClasses(t *testing.T) {
	gts := []GroundTruth{
		{ImageID: 0, Box: box(0, 0, 2, 2, 1)},
		{ImageID: 0, Box: box(4, 4, 6, 6, 2)},
	}
	dets := []Detection{
		{ImageID: 0, Box: box(0, 0, 2, 2, 1), Score: 0.9}, // class 1 perfect
		// class 2 missed entirely
	}
	got := MeanAP50(dets, gts, false)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("mean over classes: %v want 0.5", got)
	}
}

func TestMeanAPStricterAtHighIoU(t *testing.T) {
	gts := []GroundTruth{{ImageID: 0, Box: box(0, 0, 10, 10, 1)}}
	dets := []Detection{{ImageID: 0, Box: box(1, 1, 10, 10, 1), Score: 0.9}} // IoU = 81/100
	ap50 := MeanAP50(dets, gts, false)
	if ap50 != 1 {
		t.Fatalf("AP50 %v", ap50)
	}
	if ap90 := APAtIoU(dets, gts, 0.9, false); ap90 >= ap50 {
		t.Fatalf("AP at IoU 0.9 %v, must be stricter than AP50 for an imperfect box", ap90)
	}
}

func TestBLEUPerfectAndEmpty(t *testing.T) {
	ref := [][]int{{3, 4, 5, 6, 7}}
	if got := BLEU(ref, ref); math.Abs(got-100) > 1e-9 {
		t.Fatalf("perfect BLEU %v", got)
	}
	if got := BLEU([][]int{{}}, ref); got != 0 {
		t.Fatalf("empty candidate BLEU %v", got)
	}
	if got := BLEU([][]int{{9, 9, 9, 9, 9}}, ref); got != 0 {
		t.Fatalf("no-overlap BLEU %v", got)
	}
}

func TestBLEUBrevityPenalty(t *testing.T) {
	ref := [][]int{{3, 4, 5, 6, 7, 8, 9, 10}}
	short := [][]int{{3, 4, 5, 6}} // perfect prefix but half length
	full := BLEU(ref, ref)
	clipped := BLEU(short, ref)
	if clipped >= full {
		t.Fatal("short candidates must be penalized")
	}
	want := 100 * math.Exp(1-8.0/4.0)
	if math.Abs(clipped-want) > 1e-9 {
		t.Fatalf("brevity penalty: got %v want %v", clipped, want)
	}
}

func TestBLEUClipping(t *testing.T) {
	// Candidate repeats a reference token; clipped counts cap the credit.
	ref := [][]int{{3, 4, 5, 6}}
	spam := [][]int{{3, 3, 3, 3}}
	if got := BLEU(spam, ref); got != 0 {
		// 1-gram matches are clipped to 1, but higher n-grams are 0, so
		// the geometric mean is 0.
		t.Fatalf("spam BLEU %v", got)
	}
}

// Property: BLEU is within [0, 100] and equals 100 only for identity.
func TestBLEURangeProperty(t *testing.T) {
	rng := tensor.NewRNG(3)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		mk := func() []int {
			n := 4 + r.Intn(6)
			s := make([]int, n)
			for i := range s {
				s[i] = 3 + r.Intn(8)
			}
			return s
		}
		cand, ref := mk(), mk()
		b := BLEU([][]int{cand}, [][]int{ref})
		return b >= 0 && b <= 100+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateAtK(t *testing.T) {
	scores := [][]float64{
		{0.9, 0.1, 0.2, 0.3}, // held-out ranked 1st -> hit at K=1
		{0.1, 0.9, 0.8, 0.7}, // ranked 4th -> miss at K=3
	}
	if got := HitRateAtK(scores, 1); got != 0.5 {
		t.Fatalf("HR@1 %v", got)
	}
	if got := HitRateAtK(scores, 4); got != 1.0 {
		t.Fatalf("HR@4 %v", got)
	}
	if HitRateAtK(nil, 10) != 0 {
		t.Fatal("empty HR")
	}
	// A diverged model scores NaN: a NaN held-out score is a miss at any
	// K, and a NaN negative outranks a finite held-out score.
	nan := math.NaN()
	for _, tc := range []struct {
		row []float64
		k   int
	}{
		{[]float64{nan, nan, nan, nan}, 1},
		{[]float64{nan, nan, nan, nan}, 4},
		{[]float64{nan, 0.1, 0.2, 0.3}, 4},
		{[]float64{0.1, nan, nan, nan}, 1},
		{[]float64{0.9, nan, 0.1, 0.2}, 1},
	} {
		if got := HitRateAtK([][]float64{tc.row}, tc.k); got != 0 {
			t.Errorf("HR@%d of %v = %v, want 0", tc.k, tc.row, got)
		}
	}
}

// Property: HR@K is monotone non-decreasing in K.
func TestHitRateMonotoneProperty(t *testing.T) {
	rng := tensor.NewRNG(9)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		scores := make([][]float64, 5)
		for i := range scores {
			row := make([]float64, 11)
			for j := range row {
				row[j] = r.Float64()
			}
			scores[i] = row
		}
		prev := 0.0
		for k := 1; k <= 11; k++ {
			hr := HitRateAtK(scores, k)
			if hr < prev-1e-12 {
				return false
			}
			prev = hr
		}
		return prev == 1.0 // at K = list size everything is a hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMoveMatch(t *testing.T) {
	if MoveMatch([]int{1, 2, 3}, []int{1, 0, 3}) != 2.0/3.0 {
		t.Fatal("move match")
	}
}

// Regression: n-gram keys were built with string(rune(id)), which collapses
// every id >= 0x110000 and the surrogate range 0xD800–0xDFFF to U+FFFD.
// Two completely different sequences in those ranges scored BLEU 100
// against each other. Varint byte keys are injective for all ids.
func TestBLEULargeTokenIDsDoNotCollide(t *testing.T) {
	cand := [][]int{{0x110000, 7, 0x110002, 9}}
	ref := [][]int{{0xD800, 7, 0xDFFF, 9}}
	if got := BLEU(cand, ref); got != 0 {
		t.Fatalf("disjoint large-id sequences scored BLEU %v, want 0", got)
	}
	// Surrogate-range ids must also be distinguishable from each other.
	if got := BLEU([][]int{{0xD800, 0xD801}}, [][]int{{0xD802, 0xD803}}); got != 0 {
		t.Fatalf("distinct surrogate-range ids scored BLEU %v, want 0", got)
	}
	// Genuinely identical sequences still score 100 regardless of range.
	same := [][]int{{0x110000, 0xD800, 0x7FFFFFFF, 3, 42}}
	if got := BLEU(same, same); got < 99.999 {
		t.Fatalf("identical sequences scored BLEU %v, want 100", got)
	}
}

package models

import (
	"math"
	"slices"
	"testing"

	"repro/internal/autograd"
	"repro/internal/datasets"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// recEvaluateFresh is Recommendation.Evaluate as it was before it kept
// eval storage: the lists drawn again on every call, and one new tape that
// every user's forward grows.
func recEvaluateFresh(w *Recommendation) float64 {
	users, candidates := w.DS.EvalLists(w.HP.EvalNegs, tensor.NewRNG(w.seed^0xE7A1))
	scores := make([][]float64, len(users))
	ctx := nn.NewCtx(autograd.NewTape(), false, nil)
	for i, u := range users {
		us := make([]int, len(candidates[i]))
		for j := range us {
			us[j] = u
		}
		scores[i] = append([]float64(nil), w.Net.Forward(ctx, us, candidates[i]).Value.Data...)
	}
	return metrics.HitRateAtK(scores, 10)
}

// NCF's Evaluate draws its lists once and rewinds one tape per user: cold
// and warm calls score the bits the old per-call lists and growing tape
// did, and a warm call allocates nothing.
func TestRecommendationEvaluateWarmAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	w := NewRecommendation(datasets.GenerateRec(datasets.DefaultRecConfig()), DefaultNCFHParams(), 2)
	want := recEvaluateFresh(w)
	if got := w.Evaluate(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cold Evaluate = %v, a fresh tape gives %v", got, want)
	}
	var got float64
	if n := testing.AllocsPerRun(3, func() { got = w.Evaluate() }); n != 0 {
		t.Errorf("warm Evaluate allocates %v times per call, want 0", n)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("warm Evaluate = %v, a fresh tape gives %v", got, want)
	}
}

// Both translators decode each sentence on one eval tape rewound per
// sentence: a sentence decoded after others reads the tokens a fresh
// workload decodes first, and a warm decode into a buffer with room
// allocates nothing.
func TestGreedyDecodeWarmAllocFree(t *testing.T) {
	old := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	ds := datasets.GenerateMT(datasets.DefaultMTConfig())
	for _, c := range []struct {
		name   string
		decode func(seed uint64) func(dst, src []int) []int
	}{
		{"gnmt", func(seed uint64) func(dst, src []int) []int {
			return NewRNNTranslation(ds, DefaultGNMTHParams(), seed).GreedyDecode
		}},
		{"transformer", func(seed uint64) func(dst, src []int) []int {
			return NewTranslation(ds, DefaultTransformerHParams(), seed).GreedyDecode
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			last := ds.Val[len(ds.Val)-1].Src
			want := c.decode(5)(nil, last)
			decode := c.decode(5)
			for _, p := range ds.Val[:4] {
				decode(nil, p.Src)
			}
			dst := make([]int, 0, 64)
			if got := decode(dst, last); !slices.Equal(got, want) {
				t.Fatalf("warm decode %v, a fresh workload decodes %v", got, want)
			}
			if n := testing.AllocsPerRun(3, func() { decode(dst, last) }); n != 0 {
				t.Errorf("warm GreedyDecode allocates %v times per call, want 0", n)
			}
		})
	}
}

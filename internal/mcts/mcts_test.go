package mcts

import (
	"math"
	"testing"

	"repro/internal/goboard"
	"repro/internal/tensor"
)

func TestRunReturnsNormalizedLegalDistribution(t *testing.T) {
	b := goboard.New(5)
	s := New(Config{Sims: 30, CPuct: 1.4, Komi: 6.5}, HeuristicEvaluator{Komi: 6.5}, tensor.NewRNG(1))
	dist := s.Run(b, false)
	if len(dist) != b.NumMoves() {
		t.Fatalf("dist length %d", len(dist))
	}
	sum := 0.0
	for m, p := range dist {
		if p < 0 {
			t.Fatal("negative probability")
		}
		if p > 0 && !b.Legal(m) {
			t.Fatalf("probability on illegal move %d", m)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", sum)
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	b := goboard.New(5)
	mk := func(seed uint64) []float64 {
		s := New(Config{Sims: 20, CPuct: 1.4, Komi: 6.5, DirichletEps: 0.25, DirichletAlpha: 0.5},
			HeuristicEvaluator{Komi: 6.5}, tensor.NewRNG(seed))
		return s.Run(b, true)
	}
	a1, a2 := mk(7), mk(7)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed must reproduce the search exactly")
		}
	}
}

func TestTacticalEvaluatorPrefersCapture(t *testing.T) {
	// White stone in atari at (1,1) on 5x5; black to move can capture at
	// (2,1)=11.
	b := goboard.New(5)
	for _, m := range []int{1, 6, 5, 24, 7, 23} {
		if err := b.Play(m); err != nil {
			t.Fatal(err)
		}
	}
	policy, _ := TacticalEvaluator{Komi: 6.5}.Evaluate(b)
	best, bi := -1.0, -1
	for m, p := range policy {
		if b.Legal(m) && p > best {
			best, bi = p, m
		}
	}
	if bi != 11 {
		t.Fatalf("tactical oracle should prefer the capture at 11, chose %d", bi)
	}
}

func TestTacticalEvaluatorAvoidsSelfAtari(t *testing.T) {
	b := goboard.New(3)
	if err := b.Play(8); err != nil { // black corner
		t.Fatal(err)
	}
	if err := b.Play(1); err != nil { // white at (0,1)
		t.Fatal(err)
	}
	policy, _ := TacticalEvaluator{Komi: 6.5}.Evaluate(b)
	// Black playing (0,0) under the white stone is self-atari; its prior
	// must be heavily discounted vs. a safe move.
	if policy[0] >= policy[4] {
		t.Fatalf("self-atari prior %v should be < center prior %v", policy[0], policy[4])
	}
}

func TestSelfPlayProducesConsistentRecord(t *testing.T) {
	s := New(Config{Sims: 12, CPuct: 1.4, Komi: 6.5, DirichletEps: 0.25, DirichletAlpha: 0.5},
		TacticalEvaluator{Komi: 6.5}, tensor.NewRNG(3))
	rec := SelfPlay(s, 5, 2, 20)
	if len(rec.Features) == 0 {
		t.Fatal("empty game")
	}
	if len(rec.Features) != len(rec.Policies) || len(rec.Features) != len(rec.Moves) || len(rec.Features) != len(rec.Values) {
		t.Fatal("record arrays must align")
	}
	for i, f := range rec.Features {
		if len(f) != 3*25 {
			t.Fatalf("feature length %d", len(f))
		}
		sum := 0.0
		for _, p := range rec.Policies[i] {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("policy %d sums to %v", i, sum)
		}
		if v := rec.Values[i]; v != 1 && v != -1 && v != 0 {
			t.Fatalf("outcome value %v", v)
		}
	}
	// Values must alternate perspective consistently: consecutive
	// positions have opposite (or zero) outcomes.
	for i := 1; i < len(rec.Values); i++ {
		if rec.Values[i]*rec.Values[i-1] > 0 {
			t.Fatal("consecutive plies share a winner: perspectives must flip")
		}
	}
}

func TestBestMoveAndSample(t *testing.T) {
	dist := []float64{0.1, 0.7, 0.2}
	if BestMove(dist) != 1 {
		t.Fatal("argmax")
	}
	rng := tensor.NewRNG(5)
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		counts[SampleMove(dist, rng)]++
	}
	if counts[1] < 1800 || counts[1] > 2400 {
		t.Fatalf("sampling proportions off: %v", counts)
	}
}

func TestSharpenDist(t *testing.T) {
	d := []float64{0.5, 0.25, 0.25}
	s := SharpenDist(d, 2)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sharpened dist sums to %v", sum)
	}
	if s[0] <= d[0] {
		t.Fatal("sharpening must concentrate mass on the mode")
	}
	// Power 1 is the identity.
	id := SharpenDist(d, 1)
	for i := range d {
		if math.Abs(id[i]-d[i]) > 1e-12 {
			t.Fatal("power-1 sharpening must be identity")
		}
	}
}

func TestGammaSamplePositive(t *testing.T) {
	s := New(Config{Sims: 24, CPuct: 1.4, Komi: 6.5}, HeuristicEvaluator{Komi: 6.5}, tensor.NewRNG(11))
	for _, alpha := range []float64{0.3, 0.7, 1.0, 2.5} {
		for i := 0; i < 200; i++ {
			if g := s.gammaSample(alpha); g <= 0 || math.IsNaN(g) {
				t.Fatalf("gamma(%v) sample %v", alpha, g)
			}
		}
	}
}

func TestSearchFindsWinningCapture(t *testing.T) {
	// A position where capturing is clearly best: deep search with the
	// tactical evaluator must choose the capture.
	b := goboard.New(5)
	for _, m := range []int{1, 6, 5, 24, 7, 23} {
		if err := b.Play(m); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Sims: 64, CPuct: 1.4, Komi: 6.5}, TacticalEvaluator{Komi: 6.5}, tensor.NewRNG(13))
	dist := s.Run(b, false)
	if BestMove(dist) != 11 {
		t.Fatalf("search chose %d, capture is 11", BestMove(dist))
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/precision"
	"repro/internal/tensor"
)

// ---- Quantile math (the §3.3 gate is only as good as its quantiles) ----

func TestQuantileKnownValues(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		q    float64
		want float64
	}{
		{"odd median", []float64{5, 1, 3, 2, 4}, 0.5, 3},
		{"even median interpolates", []float64{4, 1, 3, 2}, 0.5, 2.5},
		{"min", []float64{9, 7, 8}, 0, 7},
		{"max", []float64{9, 7, 8}, 1, 9},
		{"R-7 lower quartile", []float64{1, 2, 3, 4}, 0.25, 1.75},
		{"R-7 upper quartile", []float64{1, 2, 3, 4}, 0.75, 3.25},
		{"quartile at sample", []float64{1, 2, 3, 4, 5}, 0.25, 2},
		{"repeated values", []float64{2, 2, 2, 2}, 0.5, 2},
		{"two samples", []float64{10, 20}, 0.5, 15},
	}
	for _, c := range cases {
		if got := Quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.xs, c.q, got, c.want)
		}
	}
}

func TestQuantileDegenerate(t *testing.T) {
	// N=1: every quantile is the lone sample.
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Errorf("Quantile([7], %v) = %v, want 7", q, got)
		}
	}
	// Input must not be mutated (callers hand in result-set samples).
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Quantile mutated its input: %v", xs)
	}
	for _, bad := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
		func() { Quantile([]float64{1}, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

// ---- StatCheck over synthetic result sets ----

// synthSet fabricates a result set with the given converged
// epochs-to-target samples plus dnf non-converged runs.
func synthSet(epochs []int, dnf int) ResultSet {
	rs := ResultSet{Benchmark: "synthetic"}
	for _, e := range epochs {
		rs.Runs = append(rs.Runs, RunResult{Benchmark: "synthetic", Epochs: e, Converged: true})
	}
	for i := 0; i < dnf; i++ {
		rs.Runs = append(rs.Runs, RunResult{Benchmark: "synthetic", Epochs: 30, Converged: false})
	}
	return rs
}

func TestStatCheckIdenticalSetsPass(t *testing.T) {
	ref := synthSet([]int{4, 5, 6, 5, 7}, 0)
	res := StatCheck(ref, ref, StatCheckConfig{})
	if !res.Pass || res.Reason != "" {
		t.Fatalf("identical sets must pass: %s", res)
	}
	if len(res.Checks) != 3 {
		t.Fatalf("default gate probes the quartiles, got %d checks", len(res.Checks))
	}
	for _, c := range res.Checks {
		if c.Ref != c.Got || !c.Pass {
			t.Fatalf("identical sets: %+v", c)
		}
	}
}

func TestStatCheckWithinBandPasses(t *testing.T) {
	ref := synthSet([]int{4, 5, 6}, 0)
	got := synthSet([]int{5, 6, 7}, 0) // one-epoch shift: inside AbsBand=1
	if res := StatCheck(ref, got, StatCheckConfig{}); !res.Pass {
		t.Fatalf("one-epoch shift must pass the default gate: %s", res)
	}
}

func TestStatCheckShiftedSetFails(t *testing.T) {
	ref := synthSet([]int{4, 5, 6}, 0)
	got := synthSet([]int{9, 10, 11}, 0)
	res := StatCheck(ref, got, StatCheckConfig{})
	if res.Pass {
		t.Fatalf("doubled epochs-to-target must fail: %s", res)
	}
	if res.Reason == "" {
		t.Fatal("failure must carry a reason")
	}
}

// Ragged sets: non-converged runs carry no epoch sample, so sides with
// different run counts still compare — but a candidate that mostly stops
// converging fails on the MinRuns floor, never passes by sample scarcity.
func TestStatCheckRaggedRuns(t *testing.T) {
	ref := synthSet([]int{4, 5, 6, 5, 6}, 0)
	got := synthSet([]int{5, 5, 6}, 2) // 3 converged of 5: still gated, passes
	if res := StatCheck(ref, got, StatCheckConfig{}); !res.Pass {
		t.Fatalf("ragged candidate inside the band must pass: %s", res)
	}
	starved := synthSet([]int{5, 5}, 3) // 2 converged < MinRuns=3
	res := StatCheck(ref, starved, StatCheckConfig{})
	if res.Pass {
		t.Fatal("candidate below MinRuns converged must fail")
	}
	if res.Reason == "" || len(res.Checks) != 0 {
		t.Fatalf("MinRuns failure must short-circuit with a reason: %s", res)
	}
	// The reference side is gated the same way.
	if res := StatCheck(starved, ref, StatCheckConfig{}); res.Pass {
		t.Fatal("starved reference must fail")
	}
}

func TestStatCheckDegenerateSingleRun(t *testing.T) {
	// MinRuns=1 admits single-run sets; N=1 quantiles are the lone sample.
	ref := synthSet([]int{5}, 0)
	got := synthSet([]int{6}, 0)
	if res := StatCheck(ref, got, StatCheckConfig{MinRuns: 1}); !res.Pass {
		t.Fatalf("single-run sets one epoch apart must pass with MinRuns=1: %s", res)
	}
}

// ---- The acceptance gate: bf16 mixed-precision NCF trains like fp64 ----

// TestStatCheckBF16NCFRunSet is the PR's acceptance criterion for the
// second verification regime: an NCF run set trained under bf16 compute
// with master weights and dynamic loss scaling must land inside the §3.3
// epochs-to-quality quantile band of the float64 reference run set. The
// quality target is lowered and the epoch budget capped to keep the run
// sets test-sized; both sides train under identical caps and seeds.
func TestStatCheckBF16NCFRunSet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run training sets are not short-mode work")
	}
	ref, err := FindBenchmark(V05, "recommendation")
	if err != nil {
		t.Fatal(err)
	}
	bf16, err := Configure(V05, "recommendation", TrainConfig{Numerics: precision.Numerics{Compute: tensor.BFloat16}})
	if err != nil {
		t.Fatal(err)
	}
	ref.Target, bf16.Target = 0.55, 0.55
	rcfg := RunSetConfig{Run: RunConfig{Seed: 21, MaxEpochs: 12}, Runs: 4, Workers: 4}
	refSet, gotSet := RunSet(ref, rcfg), RunSet(bf16, rcfg)
	res := StatCheck(refSet, gotSet, StatCheckConfig{})
	t.Logf("ref epochs %v, bf16 epochs %v", refSet.EpochsToTarget(), gotSet.EpochsToTarget())
	if !res.Pass {
		t.Fatalf("bf16 mixed-precision NCF failed the §3.3 gate: %s", res)
	}
	// The regime really ran reduced: quality values are not bitwise equal
	// to the reference (eval is fp64, training is not).
	same := true
	for i := range refSet.Runs {
		if refSet.Runs[i].FinalQuality != gotSet.Runs[i].FinalQuality {
			same = false
		}
	}
	if same {
		t.Fatal("bf16 run set is bitwise-identical to fp64 — reduced path not engaged")
	}
}

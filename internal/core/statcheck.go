package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Statistical verification — the second regime of the two-regime numerics
// contract. The float64 reference stack is verified bitwise (serial, DP,
// PP, and hybrid runs reproduce exactly); reduced-precision regimes
// (float32 compute, bf16 mixed precision) cannot be bitwise-compared to
// the reference, so they are gated the way the paper gates systems: §3.3
// chooses quality targets from a run-variance study so that run sets —
// not single runs — are comparable, and Figure 2 characterizes a
// benchmark by the distribution of its epochs-to-quality. StatCheck
// applies exactly that methodology: run an N-run set under the candidate
// numerics, run the reference set, and require the candidate's
// epochs-to-target quantiles to land inside a band around the
// reference's. A numerics regime that converges like the reference —
// statistically, across seeds — passes; one that degrades convergence
// shifts the quantiles out of the band and fails.

// StatCheckConfig parameterizes the §3.3 quantile gate.
type StatCheckConfig struct {
	// Quantiles are the probed points of the epochs-to-target
	// distribution; nil selects the quartiles {0.25, 0.5, 0.75}.
	Quantiles []float64
	// RelBand is the allowed relative deviation of each candidate
	// quantile from the reference quantile; 0 selects 0.25 (the
	// quartile may move by a quarter of its reference value).
	RelBand float64
	// AbsBand is the allowed absolute deviation in epochs; the band at
	// each quantile is max(AbsBand, RelBand·ref). 0 selects 1 — a
	// one-epoch shift is always tolerated, since epochs-to-target is
	// integer-valued and eval cadence quantizes it.
	AbsBand float64
	// MinRuns is the minimum converged-run count each set must supply
	// for the comparison to be meaningful; 0 selects 3.
	MinRuns int
}

// DefaultStatCheckConfig returns the standard gate: quartiles within
// max(1 epoch, 25%) of the reference, at least 3 converged runs per side.
func DefaultStatCheckConfig() StatCheckConfig {
	return StatCheckConfig{
		Quantiles: []float64{0.25, 0.5, 0.75},
		RelBand:   0.25,
		AbsBand:   1,
		MinRuns:   3,
	}
}

func (c StatCheckConfig) withDefaults() StatCheckConfig {
	def := DefaultStatCheckConfig()
	if c.Quantiles == nil {
		c.Quantiles = def.Quantiles
	}
	if c.RelBand == 0 {
		c.RelBand = def.RelBand
	}
	if c.AbsBand == 0 {
		c.AbsBand = def.AbsBand
	}
	if c.MinRuns == 0 {
		c.MinRuns = def.MinRuns
	}
	return c
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs under the R-7 /
// linear-interpolation definition (the numpy/Excel default): with the
// samples sorted ascending, the quantile at rank h = (n−1)q interpolates
// linearly between the neighboring order statistics. A single sample is
// every quantile of itself. Panics on an empty slice or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("core: Quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("core: quantile %v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	h := float64(len(sorted)-1) * q
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// QuantileCheck records one probed quantile of the gate.
type QuantileCheck struct {
	Q    float64 // probability of the quantile
	Ref  float64 // reference epochs-to-target quantile
	Got  float64 // candidate epochs-to-target quantile
	Band float64 // allowed |Got − Ref|
	Pass bool
}

// StatCheckResult is the outcome of the §3.3 statistical gate.
type StatCheckResult struct {
	Benchmark string
	// RefRuns / GotRuns count converged runs on each side.
	RefRuns, GotRuns int
	Checks           []QuantileCheck
	Pass             bool
	// Reason explains a failure ("" on pass).
	Reason string
}

// String renders the gate outcome for logs and test failures.
func (r StatCheckResult) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "statcheck %s %s (ref %d runs, got %d runs)", r.Benchmark, verdict, r.RefRuns, r.GotRuns)
	for _, c := range r.Checks {
		mark := "ok"
		if !c.Pass {
			mark = "OUT"
		}
		fmt.Fprintf(&b, "; q%.0f ref %.2f got %.2f ±%.2f %s", c.Q*100, c.Ref, c.Got, c.Band, mark)
	}
	if r.Reason != "" {
		fmt.Fprintf(&b, "; %s", r.Reason)
	}
	return b.String()
}

// epochsFloat converts a set's converged epochs-to-target to float64
// samples for quantile math.
func epochsFloat(rs ResultSet) []float64 {
	es := rs.EpochsToTarget()
	out := make([]float64, len(es))
	for i, e := range es {
		out[i] = float64(e)
	}
	return out
}

// StatCheck gates a candidate run set against a reference run set by the
// §3.3 methodology: both sides' epochs-to-target samples are reduced to
// quantiles, and every candidate quantile must land within
// max(AbsBand, RelBand·ref) of the reference quantile. Non-converged runs
// carry no epoch sample; a side with fewer than MinRuns converged runs
// fails outright (a regime that stops converging must not pass by having
// too few samples to compare).
func StatCheck(ref, got ResultSet, cfg StatCheckConfig) StatCheckResult {
	cfg = cfg.withDefaults()
	res := StatCheckResult{Benchmark: ref.Benchmark}
	refE, gotE := epochsFloat(ref), epochsFloat(got)
	res.RefRuns, res.GotRuns = len(refE), len(gotE)
	if len(refE) < cfg.MinRuns {
		res.Reason = fmt.Sprintf("reference has %d converged runs, need %d", len(refE), cfg.MinRuns)
		return res
	}
	if len(gotE) < cfg.MinRuns {
		res.Reason = fmt.Sprintf("candidate has %d converged runs, need %d", len(gotE), cfg.MinRuns)
		return res
	}
	res.Pass = true
	for _, q := range cfg.Quantiles {
		c := QuantileCheck{Q: q, Ref: Quantile(refE, q), Got: Quantile(gotE, q)}
		c.Band = math.Max(cfg.AbsBand, cfg.RelBand*c.Ref)
		c.Pass = math.Abs(c.Got-c.Ref) <= c.Band
		if !c.Pass {
			res.Pass = false
			res.Reason = fmt.Sprintf("q%.0f quantile %.2f outside %.2f±%.2f", q*100, c.Got, c.Ref, c.Band)
		}
		res.Checks = append(res.Checks, c)
	}
	return res
}

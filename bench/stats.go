package main

import (
	"math"
	"time"

	"repro/internal/core"
)

// quantile is the R-7 quantile of durs in the given unit (time.Millisecond
// for ms), the definition serve.Recorder and core.StatCheck share.
func quantile(durs []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(durs))
	for i, d := range durs {
		xs[i] = float64(d)
	}
	return core.Quantile(xs, q) / float64(unit)
}

func median(durs []time.Duration, unit time.Duration) float64 {
	return quantile(durs, 0.5, unit)
}

// quiet is the lower quartile of the unit's wall, the median of the faster
// half of the samples: what the traced pass, which runs without the witness
// (witness.go), uses for its ratios and its tracing overhead. Its lanes take
// turns, so a slow spell of the host falls on all of them alike, and of the
// plain quantiles this one moved least from run to run. Medians and p99 are
// printed beside it.
func quiet(durs []time.Duration, unit time.Duration) float64 {
	return quantile(durs, 0.25, unit)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(durs []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range durs {
		s += d
	}
	return s
}

// worseBy returns by what share of base the candidate is worse (negative
// when it is better), in the metric's own direction. No end-to-end metric is
// ever 0, so a base of 0 is a broken measurement and outside every bound.
func worseBy(m metric, base, cand float64) float64 {
	if base == 0 {
		return math.Inf(1)
	}
	if m.better == "higher" {
		return (base - cand) / base
	}
	return (cand - base) / base
}

// withinBound reports whether two runs of the same code agree: neither is
// worse than the other by more than the metric's bound.
func withinBound(m metric, a, b float64) bool {
	return worseBy(m, a, b) <= m.bound && worseBy(m, b, a) <= m.bound
}

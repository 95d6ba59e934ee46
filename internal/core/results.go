package core

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// OlympicMean implements the §3.2.2 aggregation: "The fastest and slowest
// times are dropped, and the arithmetic mean of the remaining runs is the
// result reported by MLPerf." It panics with fewer than 3 samples.
func OlympicMean(times []time.Duration) time.Duration {
	if len(times) < 3 {
		panic(fmt.Sprintf("core: OlympicMean needs >= 3 samples, got %d", len(times)))
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	inner := sorted[1 : len(sorted)-1]
	var total time.Duration
	for _, t := range inner {
		total += t
	}
	return total / time.Duration(len(inner))
}

// ResultSet aggregates the timed runs of one benchmark for one submission.
type ResultSet struct {
	Benchmark string
	Runs      []RunResult
}

// ConvergedTimes returns the time-to-train of every converged run.
func (rs *ResultSet) ConvergedTimes() []time.Duration {
	var out []time.Duration
	for _, r := range rs.Runs {
		if r.Converged {
			out = append(out, r.TimeToTrain)
		}
	}
	return out
}

// Score returns the official benchmark result — the olympic mean over the
// converged runs — or an error if the set is incomplete.
func (rs *ResultSet) Score(required int) (time.Duration, error) {
	times := rs.ConvergedTimes()
	if len(times) < required {
		return 0, fmt.Errorf("core: %s has %d converged runs, %d required", rs.Benchmark, len(times), required)
	}
	return OlympicMean(times[:required]), nil
}

// FirstErr returns the first run-level failure in the set (a worker
// process dying or straggling mid-run surfaces here via RunResult.Err), or
// nil if every run finished cleanly. A set with failures has no valid
// score: the failed runs can never satisfy the required converged count.
func (rs *ResultSet) FirstErr() error {
	for i, r := range rs.Runs {
		if r.Err != nil {
			return fmt.Errorf("core: %s run %d (seed %d) failed: %w", rs.Benchmark, i, r.Seed, r.Err)
		}
	}
	return nil
}

// EpochsToTarget returns, per converged run, the number of epochs needed —
// the quantity whose run-to-run distribution Figure 2 plots.
func (rs *ResultSet) EpochsToTarget() []int {
	var out []int
	for _, r := range rs.Runs {
		if r.Converged {
			out = append(out, r.Epochs)
		}
	}
	return out
}

// SpreadStats describes the dispersion of timing samples, used to validate
// the §3.2.2 design point ("90% of entries from the same system were within
// 5%" for vision, 10% for others).
type SpreadStats struct {
	Mean time.Duration
	// MaxRelDev is the maximum |t − mean|/mean over the retained samples.
	MaxRelDev float64
	// FracWithin is the fraction of retained samples within tol of the mean.
	FracWithin float64
}

// Spread computes dispersion statistics of the olympic-retained samples
// against tolerance tol (0.05 or 0.10 per §3.2.2).
func Spread(times []time.Duration, tol float64) SpreadStats {
	if len(times) < 3 {
		return SpreadStats{}
	}
	sorted := append([]time.Duration(nil), times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	inner := sorted[1 : len(sorted)-1]
	mean := OlympicMean(times)
	st := SpreadStats{Mean: mean}
	within := 0
	for _, t := range inner {
		rel := math.Abs(float64(t-mean)) / float64(mean)
		if rel > st.MaxRelDev {
			st.MaxRelDev = rel
		}
		if rel <= tol {
			within++
		}
	}
	st.FracWithin = float64(within) / float64(len(inner))
	return st
}

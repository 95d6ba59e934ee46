package main

import (
	"fmt"
	"io"
	"math"
)

// setupFloorS is the absolute difference below which two set-up times
// agree whatever their ratio: set-ups here last 0.02-0.3 s, and a quarter
// of 0.02 s is less than one scheduling hiccup. BENCHMARK.json cannot say
// this (an entry there has a name, a unit, a direction and a bound that is
// a share of the parent's median, and no other key), so only -selfcheck
// applies it.
const setupFloorS = 0.2

// selfcheckRounds is how many runs each side of the comparison makes. The
// host changes speed by a third every minute or so, and two single runs
// that straddle such a change differ by more than any bound; with the sides
// taking turns, first second first second, a change falls on both.
const selfcheckRounds = 2

// runSelfcheck runs the whole untraced set twice over on this build, the
// two sides taking turns workload by workload, and compares their means,
// metric by metric, against the benchmark's own bounds. Two sets of runs of
// the same code that disagree by more than a bound mean the bound or the
// sample size is wrong, not that anything regressed.
func runSelfcheck(opt options, stdout io.Writer) int {
	printHeader(stdout, header(opt))
	code := 0
	fmt.Fprintf(stdout, "\n%d runs a side, sides taking turns\n%-28s %-18s %14s %14s %8s %7s\n", selfcheckRounds, "workload", "metric", "first", "second", "diff", "bound")
	for j := range workloads {
		w := &workloads[j]
		var sides [2]map[string]float64
		for i := range sides {
			sides[i] = map[string]float64{}
		}
		for round := 0; round < selfcheckRounds; round++ {
			for i := range sides {
				res := runPasses(w, opt, []bool{false})
				if !res.Correct {
					fmt.Fprintf(stdout, "%-28s FAILED: %v\n", w.name, res.Failures)
					code = 1
				}
				for _, m := range endToEnd {
					sides[i][m.name] += res.Metrics[m.name].Value / selfcheckRounds
				}
			}
		}
		for _, m := range endToEnd {
			x, y := sides[0][m.name], sides[1][m.name]
			diff := math.Max(worseBy(m, x, y), worseBy(m, y, x))
			verdict := ""
			if !withinBound(m, x, y) && !(m.name == "setup_s" && math.Abs(x-y) <= setupFloorS) {
				verdict = "  OUTSIDE BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-28s %-18s %14.6g %14.6g %7.1f%% %6.0f%%%s\n", w.name, m.name, x, y, 100*diff, 100*m.bound, verdict)
		}
	}
	return code
}

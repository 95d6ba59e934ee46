// Variance study (Figures 2 and 3): run-to-run variation of epochs to
// reach the quality target for NCF and MiniGo across seeds (Figure 2), and
// the noisy early-epoch accuracy curves of ResNet across 5 seeds
// (Figure 3). Each repetition varies only the random seed, as in §2.2.3.
//
// Usage:
//
//	go run ./examples/variance -bench ncf -seeds 8
//	go run ./examples/variance -bench resnet -curves
package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
)

func main() {
	bench := flag.String("bench", "ncf", "ncf | minigo | resnet")
	seeds := flag.Int("seeds", 5, "number of runs (seeds 1..N)")
	curves := flag.Bool("curves", false, "print per-epoch quality curves (Figure 3 style)")
	flag.Parse()

	id := map[string]string{
		"ncf":    "recommendation",
		"minigo": "reinforcement_learning",
		"resnet": "image_classification",
	}[*bench]
	if id == "" {
		fmt.Println("unknown -bench; use ncf, minigo, or resnet")
		return
	}
	b, err := core.FindBenchmark(core.V05, id)
	if err != nil {
		panic(err)
	}

	fmt.Printf("%s: %d runs with identical hyperparameters except the random seed\n", b.Task, *seeds)
	fmt.Printf("quality target: %.4g %s\n\n", b.Target, b.QualityMetric)

	rs := core.RunSet(b, core.RunSetConfig{Run: core.RunConfig{Seed: 1}, Runs: *seeds})
	for _, r := range rs.Runs {
		status := fmt.Sprintf("reached target in %d epochs", r.Epochs)
		if !r.Converged {
			status = "did not converge within the epoch cap"
		}
		fmt.Printf("seed %d: %s (final quality %.4f)\n", r.Seed, status, r.FinalQuality)
		if *curves {
			fmt.Print("  curve: ")
			for _, q := range r.QualityCurve {
				fmt.Printf("%.3f ", q)
			}
			fmt.Println()
		}
	}

	epochs := rs.EpochsToTarget()
	if len(epochs) > 0 {
		fmt.Println("\nepochs-to-target histogram (Figure 2 style):")
		counts := map[int]int{}
		for _, e := range epochs {
			counts[e]++
		}
		for e := slices.Min(epochs); e <= slices.Max(epochs); e++ {
			fmt.Printf("  %3d epochs | %s\n", e, strings.Repeat("#", counts[e]))
		}
	}
}

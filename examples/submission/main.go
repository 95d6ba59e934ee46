// Submission round: a full §4 benchmarking process end to end. Two
// organizations submit NCF results — one Closed-division entry that follows
// the rules, one whose hyperparameters violate the linear-scaling rule —
// then review runs, one submitter borrows hyperparameters and resubmits,
// and the per-benchmark results report is published (with, deliberately,
// no summary score; §4.2.4).
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/submission"
)

func main() {
	b, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		panic(err)
	}
	fmt.Printf("running %d timed NCF sessions for each submitter (§3.2.2)...\n", b.RequiredRuns)
	results := core.RunSet(b, core.RunSetConfig{Run: core.RunConfig{Seed: 1}, Workers: 1})

	good := &submission.Submission{
		Org: "acme", Version: core.V05, Division: core.Closed,
		Category: submission.Available, CodeURL: "https://example.com/acme-mlperf",
		System: submission.SystemDescription{
			Name: "acme-pod", Org: "acme", Nodes: 1, Processors: 2,
			Accelerators: 8, AcceleratorType: "sim-chip", Type: submission.OnPremise,
			OS: "linux", Framework: "repro-go",
		},
		Entries: []submission.BenchmarkEntry{{
			Benchmark: "recommendation", Results: results,
			Batch: 64, RefBatch: 64,
			HParams: []core.HParamChoice{
				{Name: "batch_size", Value: 64, Reference: 64},
				{Name: "learning_rate", Value: 0.002, Reference: 0.002},
			},
		}},
	}

	bad := &submission.Submission{
		Org: "cutcorners", Version: core.V05, Division: core.Closed,
		Category: submission.Preview, CodeURL: "https://example.com/cutcorners",
		System: submission.SystemDescription{
			Name: "cc-cloud", Org: "cutcorners", Nodes: 2, Processors: 16,
			Accelerators: 16, AcceleratorType: "sim-chip", Type: submission.Cloud,
			HostMemGB: 512, AccelWeight: 4,
		},
		Entries: []submission.BenchmarkEntry{{
			Benchmark: "recommendation", Results: results,
			Batch: 256, RefBatch: 64,
			HParams: []core.HParamChoice{
				{Name: "batch_size", Value: 256, Reference: 64},
				// 4x batch requires ~4x learning rate under the linear
				// scaling rule; keeping 0.002 while quadrupling the batch
				// is flagged... and so is touching a frozen knob:
				{Name: "learning_rate", Value: 0.02, Reference: 0.002},
				{Name: "weight_initialization", Value: 2, Reference: 1},
			},
		}},
	}

	fmt.Println("\n--- peer review (§4.1) ---")
	for _, sub := range []*submission.Submission{good, bad} {
		violations := submission.Review(sub)
		fmt.Printf("%s: %d violation(s)\n", sub.Org, len(violations))
		for _, v := range violations {
			fmt.Printf("  [%s] %s\n", v.Benchmark, v.Message)
		}
	}

	fmt.Println("\n--- hyperparameter borrowing during review (§4.1) ---")
	if err := submission.BorrowHyperparams(bad, good, "recommendation"); err != nil {
		panic(err)
	}
	fmt.Printf("cutcorners adopts acme's hyperparameters and resubmits: %d violation(s)\n",
		len(submission.Review(bad)))

	fmt.Println("\n--- published results (per-benchmark; no summary score, §4.2.4) ---")
	fmt.Print(submission.FormatReport(submission.BuildReport([]*submission.Submission{good, bad})))
}

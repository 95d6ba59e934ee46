// Precision study (Figure 1): train the image classifier with different
// simulated weight representations and plot validation error vs. epoch.
// As in the paper, low-precision curves separate from full precision only
// after several epochs, and the most aggressive formats never close the
// gap — demonstrating why ML benchmarks cannot omit accuracy (§2.2.1).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/transport"
)

func main() {
	epochs := flag.Int("epochs", 10, "training epochs per format")
	flag.Parse()

	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	formats := []precision.Format{
		precision.FP64, precision.FP32, precision.FP16,
		precision.BF16, precision.Fixed8, precision.Ternary,
	}

	curves := make(map[precision.Format][]float64)
	for _, f := range formats {
		// A serial run: the engine at one replica, one stage, one
		// microbatch, over a model whose optimizer applies the policy.
		hp := models.DefaultImageHParams()
		hp.Precision = precision.WeightsOnly(f)
		m := models.NewImageClassification(ds, hp, 11)
		eng, err := pipeline.New(pipeline.Config{
			Endpoint: transport.Endpoint{Workers: 1}, Stages: 1, Microbatches: 1,
			GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 11,
		}, func(int) []pipeline.StageReplica { return pipeline.Whole(m, m.Opt) })
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		eng.SetLRSchedule(m.Sched)
		var errs []float64
		for e := 0; e < *epochs; e++ {
			eng.TrainEpoch()
			errs = append(errs, 1-m.Evaluate())
		}
		eng.Close()
		curves[f] = errs
		fmt.Printf("%-8s trained\n", f)
	}

	fmt.Printf("\nvalidation error by epoch (Figure 1 style):\n%-8s", "epoch")
	for _, f := range formats {
		fmt.Printf("%10s", f.String())
	}
	fmt.Println()
	for e := 0; e < *epochs; e++ {
		fmt.Printf("%-8d", e+1)
		for _, f := range formats {
			fmt.Printf("%10.3f", curves[f][e])
		}
		fmt.Println()
	}

	final := func(f precision.Format) float64 { return curves[f][*epochs-1] }
	fmt.Printf("\nfinal error gap vs fp64: fp32 %+.3f, fp16 %+.3f, bf16 %+.3f, fixed8 %+.3f, ternary %+.3f\n",
		final(precision.FP32)-final(precision.FP64),
		final(precision.FP16)-final(precision.FP64),
		final(precision.BF16)-final(precision.FP64),
		final(precision.Fixed8)-final(precision.FP64),
		final(precision.Ternary)-final(precision.FP64))
}

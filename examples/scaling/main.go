// Scaling study (Figures 4 and 5): simulate the v0.5 and v0.6 submission
// rounds on fixed hardware. Round-over-round software-stack efficiency,
// raised quality targets, and large-batch rule changes (LARS) drive both
// the 16-chip speedups of Figure 4 and the scale-out movement of Figure 5.
//
// With -measured, the study additionally runs the REAL training engine as
// pure data parallelism (one stage) at 1/2/4/8 workers and reports
// measured per-step times and ring-all-reduce traffic alongside the
// analytic model — and calibrates the analytic workload model against the
// measurement, so the simulated figures and the executed engine tell one
// story.
//
// With -pp, it runs the same engine (internal/pipeline) on the ResNet
// workload — serial vs DP×4 vs PP×4 vs a 2×2 hybrid, all
// training bit-identically at a pinned microbatch count — and prints the
// analytic pipeline axis (bubble model + FigurePP sweep) alongside the
// measurements.
//
// Usage:
//
//	go run ./examples/scaling            # both figures
//	go run ./examples/scaling -figure 4
//	go run ./examples/scaling -measured  # measured multi-worker step times
//	go run ./examples/scaling -pp        # measured DP vs PP vs hybrid + pipeline axis
package main

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/transport"
)

func main() {
	figure := flag.Int("figure", 0, "4, 5, or 0 for both")
	measured := flag.Bool("measured", false, "also run the real internal/pipeline engine as 1/2/4/8 data-parallel workers and report measured scaling")
	pp := flag.Bool("pp", false, "also run the real internal/pipeline engine: serial vs DP4 vs PP4 vs 2x2 hybrid ResNet step times, plus the analytic pipeline axis")
	steps := flag.Int("steps", 30, "measured steps per worker count (with -measured / -pp)")
	batch := flag.Int("batch", 256, "global batch for the measured engine (with -measured)")
	ppBatch := flag.Int("pp-batch", 64, "global batch for the measured pipeline engine (with -pp)")
	flag.Parse()

	if *figure == 0 || *figure == 4 {
		rows := cluster.Figure4()
		fmt.Println("Figure 4: speedup of the fastest 16-chip entry from v0.5 to v0.6")
		fmt.Println("(quality targets raised in v0.6, as in the paper)")
		for _, r := range rows {
			bars := int(r.Speedup * 20)
			fmt.Printf("  %-32s %.2fx %s\n", r.Benchmark, r.Speedup, strings.Repeat("█", bars))
		}
		fmt.Printf("  geometric mean: %.2fx (paper reports an average of 1.3x)\n\n", cluster.GeoMeanSpeedup(rows))
	}
	if *figure == 0 || *figure == 5 {
		rows := cluster.Figure5()
		fmt.Println("Figure 5: chips in the system with the fastest overall score")
		for _, r := range rows {
			fmt.Printf("  %-32s v0.5: %4d chips (%s)   v0.6: %4d chips (%s)   %.1fx\n",
				r.Benchmark, r.V05Chips, cluster.FormatDuration(r.V05Time),
				r.V06Chips, cluster.FormatDuration(r.V06Time), r.Increase)
		}
		fmt.Printf("  geometric mean increase: %.1fx (paper reports an average of 5.5x)\n", cluster.GeoMeanIncrease(rows))
	}
	if *measured {
		runMeasured(*steps, *batch)
	}
	if *pp {
		runPPMeasured(*steps, *ppBatch)
	}
}

// runPPMeasured trains the ResNet workload under every parallelism layout
// at a fixed global batch and a pinned microbatch count, so every
// configuration performs bit-identical training and the only variable is
// how the work is spread over the one engine's K×S grid
// (internal/pipeline): pure data parallelism (S = 1), pure pipeline
// parallelism, and a 2×2 hybrid. The tensor-kernel
// pool is pinned to one worker, so the engine is the only source of
// parallelism.
func runPPMeasured(steps, batch int) {
	const micro = 8
	const seed = 1

	oldWorkers := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(oldWorkers)

	fmt.Printf("\nMeasured DP vs PP vs hybrid: ResNet on internal/pipeline\n")
	fmt.Printf("(global batch %d, %d microbatches, %d steps per point, serial kernels, %d core(s) available;\n"+
		" all layouts train bit-identically — speedup requires spare cores)\n",
		batch, micro, steps, runtime.GOMAXPROCS(0))

	pipeStep := func(stages, workers int) (time.Duration, pipeline.Stats) {
		eng, _, err := core.NewEngine(core.V05, "image_classification", pipeline.Config{
			Endpoint: transport.Endpoint{Workers: workers},
			Stages:   stages, Microbatches: micro, GlobalBatch: batch, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		defer eng.Close()
		for s := 0; s < steps; s++ {
			eng.StepNext()
		}
		st := eng.Stats()
		return st.StepTime / time.Duration(steps), st
	}

	serial, _ := pipeStep(1, 1)
	fmt.Printf("  %-22s %10s/step   speedup %.2fx\n", "serial", serial.Round(time.Microsecond), 1.0)
	dp4, _ := pipeStep(1, 4)
	fmt.Printf("  %-22s %10s/step   speedup %.2fx\n", "DP×4", dp4.Round(time.Microsecond), float64(serial)/float64(dp4))
	t4, st4 := pipeStep(4, 1)
	fmt.Printf("  %-22s %10s/step   speedup %.2fx   activations %6.1f KiB/step\n",
		"PP×4", t4.Round(time.Microsecond), float64(serial)/float64(t4),
		float64(st4.ActivationBytes)/float64(st4.Steps)/1024)
	t22, st22 := pipeStep(2, 2)
	fmt.Printf("  %-22s %10s/step   speedup %.2fx   activations %6.1f KiB/step   ring %6.1f KiB/step\n",
		"hybrid DP×2 PP×2", t22.Round(time.Microsecond), float64(serial)/float64(t22),
		float64(st22.ActivationBytes)/float64(st22.Steps)/1024,
		float64(st22.RingBytes)/float64(st22.Steps)/1024)

	// Analytic pipeline axis: the bubble model at the measured shapes, and
	// the FigurePP sweep showing where a pipeline depth pays off at scale.
	_, v06 := cluster.Rounds()
	fmt.Printf("\nAnalytic fill-drain inflation (M+S-1)/M, i.e. 1 + the (S-1)/M bubble: ")
	for _, s := range []int{1, 2, 4} {
		fmt.Printf("S=%d: %.3fx  ", s, cluster.PipelineConfig{Stages: s, Microbatches: micro}.Bubble())
	}
	fmt.Println()
	fmt.Println("\nFigure 5 with a pipeline axis (v0.6 rules, 4096 chips, depth swept 1..8):")
	for _, r := range cluster.FigurePP(v06, 4096, 8) {
		layout := "pure DP"
		if r.BestStages > 1 {
			layout = fmt.Sprintf("DP×%d PP×%d (M=%d)", 4096/r.BestStages, r.BestStages, r.BestMicro)
		}
		fmt.Printf("  %-32s best %-22s %8s (pure DP %8s, %.2fx)\n",
			r.Benchmark, layout, cluster.FormatDuration(r.HybridTime), cluster.FormatDuration(r.DPTime), r.Speedup)
	}
}

// runMeasured trains the NCF recommendation model on the one-stage engine
// at increasing worker counts, at a fixed global batch and fixed
// microbatch count, so every configuration performs bit-identical training
// and the only variable is parallel execution. The tensor-kernel pool is
// pinned to one worker for the duration, so the data-parallel workers are
// the experiment's only source of parallelism.
func runMeasured(steps, batch int) {
	const micro = 8
	const seed = 1

	oldWorkers := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(oldWorkers)

	fmt.Printf("\nMeasured data-parallel scaling: NCF on internal/pipeline\n")
	fmt.Printf("(global batch %d, %d microbatches, %d steps per point, serial kernels, %d core(s) available;\n"+
		" all points train bit-identically — speedup requires spare cores)\n",
		batch, micro, steps, runtime.GOMAXPROCS(0))

	var basePerStep time.Duration
	var flatBytes int
	for _, k := range []int{1, 2, 4, 8} {
		eng, _, err := core.NewEngine(core.V05, "recommendation", pipeline.Config{
			Endpoint: transport.Endpoint{Workers: k},
			Stages:   1, Microbatches: micro,
			GlobalBatch: batch, Seed: seed,
		})
		if err != nil {
			panic(err)
		}
		for s := 0; s < steps; s++ {
			eng.StepNext()
		}
		st := eng.Stats()
		perStep := st.StepTime / time.Duration(steps)
		if k == 1 {
			basePerStep = perStep
			flatBytes = eng.FlatSize() * 8
		}
		speedup := float64(basePerStep) / float64(perStep)
		fmt.Printf("  workers %d: %10s/step   speedup %.2fx   ring traffic %6.1f KiB/step\n",
			k, perStep.Round(time.Microsecond), speedup,
			float64(st.RingBytes)/float64(st.Steps)/1024)
		eng.Close()
	}

	// Calibrate the analytic Figure-4/5 workload model against the measured
	// serial step time and the real gradient payload.
	for _, w := range cluster.WorkloadModels() {
		if w.ID != "recommendation" {
			continue
		}
		v05, _ := cluster.Rounds()
		cal := w.CalibrateFromMeasurement(basePerStep.Seconds(), batch, cluster.ReferenceChip(), v05, float64(flatBytes))
		fmt.Printf("\nAnalytic model calibrated to the measurement:\n")
		fmt.Printf("  FlopsPerSample %.3g (was %.3g), ModelBytes %.3g (was %.3g)\n",
			cal.FlopsPerSample, w.FlopsPerSample, cal.ModelBytes, w.ModelBytes)
		for _, chips := range []int{1, 2, 4, 8} {
			sys := cluster.System{Name: fmt.Sprintf("sim-%dx", chips), Chips: chips,
				Chip: cluster.ReferenceChip(), Network: cluster.ReferenceNetwork()}
			t := cluster.StepTime(sys, cal, v05, batch)
			fmt.Printf("  analytic step time at %d chips: %s\n", chips, t.Round(time.Nanosecond))
		}
	}
}

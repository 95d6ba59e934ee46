// Command mlperf runs MLPerf Training benchmarks end to end: it trains the
// selected benchmark(s) to their quality targets under the timing rules and
// reports time-to-train, emitting MLLOG structured logs.
//
// Usage:
//
//	mlperf -list
//	mlperf -benchmark recommendation -runs 3 -seed 1
//	mlperf -benchmark all -version v0.6
//	mlperf -benchmark recommendation -runs 10 -parallel -workers 8
//	mlperf -benchmark recommendation -dp 4 -microbatches 8   # data parallel (the internal/pipeline engine at one stage)
//	mlperf -benchmark image_classification -pp-stages 4 -pp-schedule 1f1b   # pipeline parallel
//	mlperf -benchmark image_classification -pp-stages 2 -dp 2              # hybrid DP×PP
//	mlperf -benchmark recommendation -dtype bf16 -runs 5 -verify stat      # reduced numerics, §3.3 gate
//	mlperf -benchmark recommendation -verify bitwise                       # fp64 re-run reproducibility check
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/precision"
	"repro/internal/tensor"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "recommendation", "benchmark ID or 'all'")
		version   = flag.String("version", "v0.5", "benchmark round: v0.5 or v0.6")
		runs      = flag.Int("runs", 1, "number of timed runs (0 = the 5/10 the round requires for official scores)")
		seed      = flag.Uint64("seed", 1, "base random seed; run i uses seed+i")
		maxEpochs = flag.Int("max-epochs", 0, "override the benchmark's epoch cap (0 = default)")
		logs      = flag.Bool("mllog", false, "stream MLLOG lines to stdout")
		list      = flag.Bool("list", false, "list the suite (Table 1) and exit")
		workers   = flag.Int("workers", 0, "worker-pool size for tensor kernels and concurrent runs (0 = GOMAXPROCS, 1 = serial)")
		par       = flag.Bool("parallel", false, "execute each benchmark's runs concurrently: quality results match serial exactly, but wall-clock times-to-train reflect core contention, and output (including -mllog) is buffered until the run set completes")
		dp        = flag.Int("dp", 0, "data-parallel workers: train on the internal/pipeline engine with K replicas of the model and a per-step ring all-reduce (0 = serial: the same engine at one replica, one stage and one microbatch; supported: every benchmark but reinforcement_learning). With -pp-stages, K replicates every pipeline stage instead (hybrid DP×PP)")
		ppStages  = flag.Int("pp-stages", 0, "pipeline-parallel stages: train on the internal/pipeline engine with the model split into S cost-balanced stages (0 = no pipeline; supported: image_classification, translation_transformer). Combine with -dp for hybrid DP×PP")
		ppSched   = flag.String("pp-schedule", "gpipe", "microbatch schedule for -pp-stages: gpipe (fill-drain) or 1f1b. Never affects results, only activation liveness")
		micro     = flag.Int("microbatches", 0, "gradient-reduction grain for -dp / -pp-stages: microbatches per global batch, a multiple of -dp (0 = the engine's default: -dp without -pp-stages, the grain mlperf-worker -dp picks too). Runs sharing seed, batch, and microbatches are bit-identical across every (stages, schedule, workers) combination")
		ckptDir   = flag.String("checkpoint-dir", "", "directory for sealed training checkpoints (internal/ckpt); run i of a multi-run set uses the run<i> subdirectory. Empty disables checkpointing")
		ckptEvery = flag.Int("checkpoint-every", 1, "checkpoint cadence in epochs (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "resume each run from the newest valid checkpoint in its -checkpoint-dir subdirectory (an empty directory degrades to a fresh run)")
		dtypeF    = flag.String("dtype", "f64", "training compute regime: f64 (the bitwise-verified reference), f32 (reduced compute), or bf16 (f32 storage with bf16 rounding, master weights, dynamic loss scaling). The reduced regimes are the engine's: every benchmark but reinforcement_learning (bf16 at one pipeline stage)")
		verifyF   = flag.String("verify", "off", "run-set verification: off; auto (bitwise for -dtype f64, stat otherwise); bitwise (re-execute run 0 and require identical epochs and quality — the fp64 determinism contract); stat (train a paired fp64 reference run set and gate this regime's epochs-to-target quantiles per §3.3; needs -runs >= 3)")
	)
	flag.Parse()

	parallel.SetWorkers(*workers)

	v := core.Version(*version)
	if v != core.V05 && v != core.V06 {
		fmt.Fprintf(os.Stderr, "unknown version %q\n", *version)
		os.Exit(2)
	}

	dtype, err := tensor.ParseDType(*dtypeF)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	num := precision.Numerics{Compute: dtype}

	verify := *verifyF
	if verify == "auto" {
		if dtype == tensor.Float64 {
			verify = "bitwise"
		} else {
			verify = "stat"
		}
	}
	switch verify {
	case "off", "bitwise", "stat":
	default:
		fmt.Fprintf(os.Stderr, "unknown -verify mode %q (want off, auto, bitwise, or stat)\n", *verifyF)
		os.Exit(2)
	}
	if verify == "bitwise" && dtype != tensor.Float64 {
		fmt.Fprintf(os.Stderr, "-verify bitwise requires -dtype f64: the %s regime is gated statistically (-verify stat), not bitwise\n", dtype)
		os.Exit(2)
	}
	if verify == "stat" && dtype == tensor.Float64 {
		fmt.Fprintln(os.Stderr, "-verify stat compares a reduced regime against the fp64 reference; with -dtype f64 use -verify bitwise")
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint-dir")
		os.Exit(2)
	}

	if *list {
		fmt.Printf("MLPerf Training %s benchmark suite (Table 1)\n\n", v)
		fmt.Printf("%-32s %-44s %-28s %-10s %s\n", "Benchmark", "Dataset", "Model", "Runs", "Quality Threshold")
		for _, b := range core.Suite(v) {
			fmt.Printf("%-32s %-44s %-28s %-10d %.4g %s\n", b.ID, b.Dataset, b.Model, b.RequiredRuns, b.Target, b.QualityMetric)
		}
		return
	}

	var ids []string
	if *benchmark == "all" {
		ids = core.BenchmarkIDs(v)
	} else {
		ids = []string{*benchmark}
	}

	failed := false
	for _, id := range ids {
		// makeBench builds this benchmark under an arbitrary regime, so the
		// stat verifier can construct the paired fp64 reference with the
		// same parallelism topology. The whole flag surface folds into one
		// TrainConfig; Configure routes it to the right engine.
		makeBench := func(n precision.Numerics) (core.Benchmark, error) {
			return core.Configure(v, id, core.TrainConfig{
				Parallel: core.Parallel{
					DP:       *dp, // per-stage replicas under -pp-stages; unrelated to the -workers kernel pool
					PPStages: *ppStages, PPSchedule: *ppSched, Microbatches: *micro,
				},
				Numerics: n,
			})
		}
		b, err := makeBench(num)
		if err != nil {
			if *benchmark == "all" {
				// With -benchmark all, skip benchmarks this configuration
				// doesn't support rather than aborting the suite.
				fmt.Fprintf(os.Stderr, "skipping %s: %v\n", id, err)
				continue
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		// Run 0's config: the set's template, and the bitwise re-run.
		run0 := core.RunConfig{Seed: *seed, MaxEpochs: *maxEpochs}
		if verify != "off" {
			run0.Verify = verify
		}
		set := core.RunSetConfig{Run: run0, Runs: *runs, Workers: 1}
		if *par {
			set.Workers = *workers
		}
		if *logs {
			set.Run.LogWriter = os.Stdout
		}
		if *ckptDir != "" {
			set.Run.Checkpoint = core.CheckpointConfig{Dir: *ckptDir, Every: *ckptEvery, Resume: *resume}
		}
		rs := core.RunSet(b, set)
		for _, r := range rs.Runs {
			fmt.Println(r.String())
		}
		if err := rs.FirstErr(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
		if times := rs.ConvergedTimes(); len(times) >= 3 {
			fmt.Printf("%s: olympic mean over %d converged runs: %s\n",
				id, len(times), core.OlympicMean(times).Round(time.Millisecond))
		}

		switch verify {
		case "bitwise":
			first := rs.Runs[0]
			if again, ok := reproduces(b, run0, first); ok {
				fmt.Printf("%s: bitwise verification PASS (run 0 reproduced exactly)\n", id)
			} else {
				fmt.Printf("%s: bitwise verification FAIL: re-run of seed %d gave epochs=%d quality=%v, first gave epochs=%d quality=%v\n",
					id, *seed, again.Epochs, again.FinalQuality, first.Epochs, first.FinalQuality)
				failed = true
			}
		case "stat":
			refB, err := makeBench(precision.Numerics{})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			refSet := core.RunSet(refB, core.RunSetConfig{Run: run0, Runs: *runs, Workers: *workers})
			res := core.StatCheck(refSet, rs, core.StatCheckConfig{})
			fmt.Println(res.String())
			if !res.Pass {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// reproduces re-executes run 0 under its config and reports whether the
// training trajectory (epochs and every evaluated quality value) matches
// first exactly: the fp64 regime's contract.
func reproduces(b core.Benchmark, run0 core.RunConfig, first core.RunResult) (core.RunResult, bool) {
	again := core.Run(b, run0)
	return again, again.Epochs == first.Epochs && again.FinalQuality == first.FinalQuality &&
		slices.Equal(again.QualityCurve, first.QualityCurve)
}

// Command mlperf-worker runs a benchmark as a multi-process DP×PP grid over
// TCP: it is launcher and worker in one binary. Invoked with flags it
// launches DP×PP copies of itself, runs the rendezvous coordinator, waits
// for every rank's result, checks the per-stage trajectory digests agree
// across replicas, and calibrates the internal/cluster analytic model from
// the measured step time. Re-invoked by the launcher (grid environment
// variables set) it becomes one grid cell and runs grid.WorkerMain.
//
// Usage:
//
//	mlperf-worker -benchmark recommendation -dp 2 -steps 10
//	mlperf-worker -benchmark image_classification -dp 2 -pp 2 -steps 5
//	mlperf-worker -benchmark translation_transformer -pp 2 -steps 5 -pp-schedule 1f1b
//	mlperf-worker -benchmark recommendation -dp 2 -steps 20 -straggler-timeout 5s
//	mlperf-worker -benchmark recommendation -dp 2 -steps 20 -ckpt-dir /tmp/ckpt -ckpt-every 5
//	mlperf-worker -benchmark recommendation -dp 2 -steps 20 -ckpt-dir /tmp/ckpt -ckpt-every 5 \
//	    -supervise -chaos-seed 7 -chaos-crashes 1   # seeded crash + supervised restart
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/mlog"
	"repro/internal/transport"
)

func main() {
	if grid.Worker() {
		if err := grid.WorkerMain(); err != nil {
			fmt.Fprintf(os.Stderr, "mlperf-worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := launch(); err != nil {
		fmt.Fprintf(os.Stderr, "mlperf-worker: %v\n", err)
		os.Exit(1)
	}
}

func launch() error {
	var (
		benchmark = flag.String("benchmark", "recommendation", "benchmark ID: any but reinforcement_learning (image_classification and translation_transformer also split into -pp stages)")
		version   = flag.String("version", "v0.5", "benchmark round: v0.5 or v0.6")
		dp        = flag.Int("dp", 1, "data-parallel replicas K (ring all-reduce over TCP)")
		pp        = flag.Int("pp", 1, "pipeline stages S (boundary activations over TCP); the grid runs K×S processes")
		micro     = flag.Int("microbatches", 0, "gradient-reduction grain: microbatches per global batch, a multiple of -dp (0 = the engine's default: -dp at -pp 1, the grain mlperf -dp picks too)")
		ppSched   = flag.String("pp-schedule", "gpipe", "microbatch schedule: gpipe or 1f1b")
		batch     = flag.Int("batch", 0, "global batch override (0 = the benchmark's reference batch)")
		steps     = flag.Int("steps", 10, "optimizer steps per worker")
		seed      = flag.Uint64("seed", 1, "random seed shared by every process")
		strag     = flag.Duration("straggler-timeout", 0, "bound on every mesh receive; expiry fails the run with a typed straggler error instead of hanging (0 = unbounded)")
		ckptDir   = flag.String("ckpt-dir", "", "directory for sealed per-rank training checkpoints (internal/ckpt); empty disables checkpointing")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint cadence in optimizer steps (with -ckpt-dir)")
		resume    = flag.Bool("resume", false, "resume from the newest complete checkpoint set in -ckpt-dir (an empty directory degrades to a fresh run)")
		supervise = flag.Bool("supervise", false, "run under the elastic supervisor: a failed grid is respawned from the newest complete checkpoint set (requires -ckpt-dir and -ckpt-every)")
		maxRest   = flag.Int("max-restarts", 3, "restart budget for -supervise")
		chaosSeed = flag.Uint64("chaos-seed", 0, "seed for the deterministic fault plan (with -chaos-crashes)")
		chaosN    = flag.Int("chaos-crashes", 0, "inject one seeded worker crash into each of the first N generations (requires -ckpt-every; pair with -supervise to watch the run recover)")
	)
	flag.Parse()

	spec := grid.Spec{
		Benchmark: *benchmark, Version: *version,
		DP: *dp, PP: *pp,
		Microbatches: *micro, Schedule: *ppSched,
		GlobalBatch: *batch, Steps: *steps, Seed: *seed,
		StragglerMS: strag.Milliseconds(),
		CkptDir:     *ckptDir, CkptEvery: *ckptEvery, Resume: *resume,
		ChaosSeed: *chaosSeed, ChaosCrashes: *chaosN,
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("launching %d×%d grid (%d processes) for %s/%s, %d steps\n",
		*dp, *pp, spec.World(), *benchmark, *version, *steps)

	if *supervise {
		res, err := grid.Supervise(spec, grid.SuperviseOptions{
			Start: grid.StartOptions{
				Command: []string{exe},
				Stdout:  os.Stdout,
				Stderr:  os.Stderr,
			},
			MaxRestarts: *maxRest,
			Log:         mlog.NewLogger(os.Stdout),
		})
		if err != nil {
			return err
		}
		fmt.Printf("supervised run complete after %d restart(s)\n", res.Restarts)
		report(res.Results, spec)
		return calibrate(res.Results, spec)
	}

	c, err := grid.Start(spec, grid.StartOptions{
		Command: []string{exe},
		Stdout:  os.Stdout,
		Stderr:  os.Stderr,
	})
	if err != nil {
		return err
	}
	results, err := c.Wait()
	report(results, spec)
	if err != nil {
		return err
	}
	return calibrate(results, spec)
}

// report prints the per-rank table and flags digest disagreements: every
// replica of the same pipeline stage (same s = rank mod S) trains the same
// shard, so their trajectory digests must be bit-identical.
func report(results []*transport.WorkerResult, spec grid.Spec) {
	fmt.Printf("%-6s %-8s %-8s %-18s %-12s %s\n", "rank", "(k,s)", "steps", "digest", "step-time", "loss")
	s := spec.PP
	if s < 1 {
		s = 1
	}
	stageDigest := make(map[int]string)
	for _, r := range results {
		if r == nil {
			continue
		}
		status := r.Digest
		if r.Err != "" {
			status = "ERR: " + r.Err
		}
		fmt.Printf("%-6d (%d,%d)    %-8d %-18s %-12s %.6f\n",
			r.Rank, r.Rank/s, r.Rank%s, r.Steps, status,
			time.Duration(r.StepSeconds*float64(time.Second)).Round(time.Microsecond), r.Loss)
		if r.Err != "" || r.Digest == "" {
			continue
		}
		if prev, ok := stageDigest[r.Rank%s]; !ok {
			stageDigest[r.Rank%s] = r.Digest
		} else if prev != r.Digest {
			fmt.Printf("  ** stage %d digest mismatch: %s vs %s — replicas diverged\n", r.Rank%s, prev, r.Digest)
		}
	}
	var loss float64
	for _, r := range results {
		if r != nil {
			loss += r.Loss
		}
	}
	fmt.Printf("global final-step loss: %.6f\n", loss)
}

// calibrate fits the internal/cluster analytic workload model to the
// measured step time and prints the model's Figure 4-style scaling
// projection from that anchor (see cluster.CalibrateFromMeasurement).
func calibrate(results []*transport.WorkerResult, spec grid.Spec) error {
	var model cluster.WorkloadModel
	found := false
	for _, w := range cluster.WorkloadModels() {
		if w.ID == spec.Benchmark {
			model, found = w, true
			break
		}
	}
	if !found {
		return nil // benchmark has no analytic model; nothing to calibrate
	}
	v05, v06 := cluster.Rounds()
	round := v05
	if spec.Version == "v0.6" {
		round = v06
	}

	// Mean measured step time across ranks; model bytes = one replica's
	// all-reduce payload (sum over the k=0 pipeline column's shards).
	var stepSec float64
	var n int
	var modelBytes float64
	s := spec.PP
	if s < 1 {
		s = 1
	}
	for _, r := range results {
		if r == nil || r.Err != "" {
			continue
		}
		stepSec += r.StepSeconds
		n++
		if r.Rank/s == 0 {
			modelBytes += float64(r.FlatBytes)
		}
	}
	if n == 0 || stepSec <= 0 {
		return nil
	}
	stepSec /= float64(n)

	batch := spec.GlobalBatch
	if batch <= 0 {
		b, err := grid.DefaultBatch(spec.Benchmark, spec.Version)
		if err != nil {
			return err
		}
		batch = b
	}
	chip := cluster.ReferenceChip()
	model = model.CalibrateFromMeasurement(stepSec, batch, chip, round, modelBytes)

	fmt.Printf("\ncalibrated analytic model (%s, %s): flops/sample %.3g, payload %.3g MB\n",
		model.ID, round.Version, model.FlopsPerSample, model.ModelBytes/1e6)
	fmt.Printf("%-8s %s\n", "chips", "analytic step time")
	net := cluster.ReferenceNetwork()
	for _, chips := range []int{1, 2, 4, 8, 16} {
		sys := cluster.System{Name: "measured-anchor", Chips: chips, Chip: chip, Network: net}
		fmt.Printf("%-8d %s\n", chips, cluster.StepTime(sys, model, round, batch).Round(time.Microsecond))
	}
	return nil
}

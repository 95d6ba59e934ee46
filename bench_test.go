package repro

// One benchmark per table and figure in the paper's evaluation, plus
// ablation benches for the harness's design choices and
// microbenchmarks of the compute substrates. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches print the same rows/series the paper reports; shapes
// (who wins, by what factor, where crossovers fall) are the reproduction
// target, not absolute times.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/goboard"
	"repro/internal/mcts"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/precision"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// --- Table 1: the benchmark suite ---

func BenchmarkTable1Suite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := core.Suite(core.V05)
		if len(suite) != 7 {
			b.Fatal("Table 1 must list 7 benchmarks")
		}
	}
	b.StopTimer()
	fmt.Println("\nTable 1: MLPerf Training v0.5 benchmarks")
	for _, bench := range core.Suite(core.V05) {
		fmt.Printf("  %-46s %-28s target %.4g (%s)\n", bench.Task, bench.Model, bench.Target, bench.QualityMetric)
	}
}

// serialImage builds a serial run of the image classifier under hp: the
// engine at one replica, one stage and one microbatch, over a model whose
// optimizer applies hp's precision policy. It returns the engine and the
// model, whose Evaluate is the run's quality.
func serialImage(b *testing.B, ds *datasets.ImageDataset, hp models.ImageHParams, seed uint64) (*pipeline.Engine, *models.ImageClassification) {
	b.Helper()
	m := models.NewImageClassification(ds, hp, seed)
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1}, Stages: 1, Microbatches: 1,
		GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: seed,
	}, func(int) []pipeline.StageReplica { return pipeline.Whole(m, m.Opt) })
	if err != nil {
		b.Fatal(err)
	}
	eng.SetLRSchedule(m.Sched)
	b.Cleanup(eng.Close)
	return eng, m
}

// --- Figure 1: weight representations vs validation error ---

func BenchmarkFigure1Precision(b *testing.B) {
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	formats := []precision.Format{precision.FP64, precision.FP16, precision.Fixed8, precision.Ternary}
	const epochs = 6
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fmt.Printf("\nFigure 1: validation error by epoch under weight representations (seed 11)\n")
		b.StartTimer()
		curves := map[precision.Format][]float64{}
		for _, f := range formats {
			hp := models.DefaultImageHParams()
			hp.Precision = precision.WeightsOnly(f)
			eng, m := serialImage(b, ds, hp, 11)
			for e := 0; e < epochs; e++ {
				eng.TrainEpoch()
				curves[f] = append(curves[f], 1-m.Evaluate())
			}
		}
		b.StopTimer()
		for _, f := range formats {
			fmt.Printf("  %-8s", f)
			for _, v := range curves[f] {
				fmt.Printf(" %.3f", v)
			}
			fmt.Println()
		}
		b.ReportMetric(curves[precision.Ternary][epochs-1]-curves[precision.FP64][epochs-1], "ternary-gap")
		b.StartTimer()
	}
}

// --- Figure 2a: NCF epochs-to-target variance across seeds ---

func BenchmarkFigure2NCFVariance(b *testing.B) {
	bench, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var epochs []int
		for seed := uint64(1); seed <= 8; seed++ {
			r := core.Run(bench, core.RunConfig{Seed: seed})
			if r.Converged {
				epochs = append(epochs, r.Epochs)
			}
		}
		b.StopTimer()
		fmt.Printf("\nFigure 2a: NCF epochs to HR@10 >= %.3f across seeds: %v\n", bench.Target, epochs)
		lo, hi, sum := epochs[0], epochs[0], 0
		for _, e := range epochs {
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
			sum += e
		}
		b.ReportMetric(float64(sum)/float64(len(epochs)), "epochs-mean")
		b.ReportMetric(float64(hi-lo), "epochs-range")
		b.StartTimer()
	}
}

// --- Figure 2b: MiniGo epochs-to-target variance (high, as in the paper) ---

func BenchmarkFigure2MiniGoVariance(b *testing.B) {
	bench, err := core.FindBenchmark(core.V05, "reinforcement_learning")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var epochs []int
		for seed := uint64(1); seed <= 2; seed++ {
			r := core.Run(bench, core.RunConfig{Seed: seed, MaxEpochs: 45, EvalEvery: 2})
			e := r.Epochs
			if !r.Converged {
				e = 45 // censored at the cap — MiniGo variance is extreme (§2.2.3)
			}
			epochs = append(epochs, e)
		}
		b.StopTimer()
		fmt.Printf("\nFigure 2b: MiniGo epochs to %.2f oracle-move match across seeds: %v\n", bench.Target, epochs)
		b.StartTimer()
	}
}

// --- Figure 3: ResNet accuracy curves across 5 seeds ---

func BenchmarkFigure3ResNetCurves(b *testing.B) {
	bench, err := core.FindBenchmark(core.V05, "image_classification")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		// Train past the target (no early stop) so every seed's curve has
		// the same length, as in the figure.
		curves := make([][]float64, 0, 5)
		for seed := uint64(1); seed <= 5; seed++ {
			w := bench.New(seed)
			var curve []float64
			for e := 0; e < 14; e++ {
				w.TrainEpoch()
				curve = append(curve, w.Evaluate())
			}
			w.(*pipeline.Workload).Close()
			curves = append(curves, curve)
		}
		b.StopTimer()
		fmt.Printf("\nFigure 3: ResNet top-1 by epoch, 5 seeds (target %.3f dotted)\n", bench.Target)
		for s, c := range curves {
			fmt.Printf("  seed %d:", s+1)
			for _, q := range c {
				fmt.Printf(" %.3f", q)
			}
			fmt.Println()
		}
		// Early-phase noise exceeds late-phase noise (the figure's point:
		// "the early phase of training is marked by significantly more
		// variability"; the reference LR decay stabilizes late epochs).
		early := curveNoise(curves, 1, 9)
		late := curveNoise(curves, len(curves[0])-4, len(curves[0]))
		b.ReportMetric(early, "early-noise")
		b.ReportMetric(late, "late-noise")
		b.StartTimer()
	}
}

// curveNoise returns the mean epoch-to-epoch quality change |q_e − q_{e−1}|
// across seeds over epochs [lo, hi) — the per-curve variability Figure 3
// contrasts between the early and late training phases.
func curveNoise(curves [][]float64, lo, hi int) float64 {
	if lo < 1 {
		lo = 1
	}
	total, n := 0.0, 0
	for _, c := range curves {
		for e := lo; e < hi && e < len(c); e++ {
			d := c[e] - c[e-1]
			if d < 0 {
				d = -d
			}
			total += d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// --- Figure 4: 16-chip speedups v0.5 -> v0.6 ---

func BenchmarkFigure4Speedup16Chip(b *testing.B) {
	var rows []cluster.Figure4Row
	for i := 0; i < b.N; i++ {
		rows = cluster.Figure4()
	}
	b.StopTimer()
	fmt.Println("\nFigure 4: fastest 16-chip entry speedup v0.5 -> v0.6 (targets raised)")
	for _, r := range rows {
		fmt.Printf("  %-32s %.2fx\n", r.Benchmark, r.Speedup)
	}
	b.ReportMetric(cluster.GeoMeanSpeedup(rows), "geomean-speedup")
}

// --- Figure 5: best-overall scale increase v0.5 -> v0.6 ---

func BenchmarkFigure5ScaleIncrease(b *testing.B) {
	var rows []cluster.Figure5Row
	for i := 0; i < b.N; i++ {
		rows = cluster.Figure5()
	}
	b.StopTimer()
	fmt.Println("\nFigure 5: chips in the fastest-overall system v0.5 -> v0.6")
	for _, r := range rows {
		fmt.Printf("  %-32s %d -> %d (%.1fx)\n", r.Benchmark, r.V05Chips, r.V06Chips, r.Increase)
	}
	b.ReportMetric(cluster.GeoMeanIncrease(rows), "geomean-increase")
}

// --- §2.2.2 in-text: batch size vs epochs-to-target ---

func BenchmarkBatchSizeEpochsToTarget(b *testing.B) {
	var resnet cluster.WorkloadModel
	for _, w := range cluster.WorkloadModels() {
		if w.ID == "image_classification" {
			resnet = w
		}
	}
	for i := 0; i < b.N; i++ {
		_ = resnet.EpochsToTarget(4096)
	}
	b.StopTimer()
	fmt.Println("\n§2.2.2: ResNet epochs-to-target vs global batch (paper: 64 @ 4K, >80 @ 16K)")
	for _, batch := range []int{256, 1024, 4096, 16384, 65536} {
		fmt.Printf("  batch %6d: %.1f epochs\n", batch, resnet.EpochsToTarget(batch))
	}
	b.ReportMetric(resnet.EpochsToTarget(16384)/resnet.EpochsToTarget(4096), "16k-vs-4k")
}

// --- §2.2.4: momentum formulation divergence under LR decay ---

func BenchmarkMomentumVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := autograd.NewParam("a", tensor.Ones(1))
		c := autograd.NewParam("c", tensor.Ones(1))
		sa := opt.NewSGD([]*autograd.Param{a}, 0.1, 0.9, 0, opt.CaffeStyle)
		sc := opt.NewSGD([]*autograd.Param{c}, 0.1, 0.9, 0, opt.TorchStyle)
		for step := 0; step < 100; step++ {
			if step == 50 {
				sa.SetLR(0.01)
				sc.SetLR(0.01)
			}
			a.Grad.Data[0] = 2 * a.Value.Data[0]
			c.Grad.Data[0] = 2 * c.Value.Data[0]
			sa.Step()
			sc.Step()
		}
		if i == 0 {
			b.StopTimer()
			fmt.Printf("\n§2.2.4: Caffe-style vs Torch-style momentum after LR decay: w=%.6f vs w=%.6f (divergence %.2e)\n",
				a.Value.Data[0], c.Value.Data[0], a.Value.Data[0]-c.Value.Data[0])
			b.StartTimer()
		}
	}
}

// --- §3.2.2: timing-sample stability ---

func BenchmarkTimingSampleStability(b *testing.B) {
	bench, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		var times []time.Duration
		for seed := uint64(1); seed <= 10; seed++ {
			r := core.Run(bench, core.RunConfig{Seed: seed})
			if r.Converged {
				times = append(times, r.TimeToTrain)
			}
		}
		st := core.Spread(times, 0.10)
		b.StopTimer()
		fmt.Printf("\n§3.2.2: NCF 10-run stability: olympic mean %v, %.0f%% of retained runs within 10%%\n",
			st.Mean.Round(time.Millisecond), st.FracWithin*100)
		b.ReportMetric(st.FracWithin, "frac-within-10pct")
		b.StartTimer()
	}
}

// --- Ablations: the harness's design choices ---

// LARS vs plain SGD+momentum for the large-batch image workload (the v0.6
// rule-change rationale).
func BenchmarkAblationLARSLargeBatch(b *testing.B) {
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	for i := 0; i < b.N; i++ {
		hpSGD := models.DefaultImageHParams()
		hpSGD.Batch = 160
		sgdEng, sgd := serialImage(b, ds, hpSGD, 21)
		hpLARS := hpSGD
		hpLARS.UseLARS = true
		hpLARS.WarmupEpochs = 2
		larsEng, lars := serialImage(b, ds, hpLARS, 21)
		for e := 0; e < 6; e++ {
			sgdEng.TrainEpoch()
			larsEng.TrainEpoch()
		}
		b.StopTimer()
		fmt.Printf("\nAblation: large-batch (160) top-1 after 6 epochs: SGD %.3f vs LARS %.3f\n",
			sgd.Evaluate(), lars.Evaluate())
		b.StartTimer()
	}
}

// Dihedral augmentation for MiniGo replay (design choice in the RL loop).
func BenchmarkAblationMiniGoSims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hpLow := models.DefaultMiniGoHParams()
		hpLow.Sims = 8
		low := models.NewReinforcementLearning(hpLow, 5)
		hpHigh := models.DefaultMiniGoHParams()
		hpHigh.Sims = 48
		high := models.NewReinforcementLearning(hpHigh, 5)
		for e := 0; e < 6; e++ {
			low.TrainEpoch()
			high.TrainEpoch()
		}
		b.StopTimer()
		fmt.Printf("\nAblation: MiniGo oracle-move match after 6 epochs: 8 sims %.3f vs 48 sims %.3f\n",
			low.Evaluate(), high.Evaluate())
		b.StartTimer()
	}
}

// --- Substrate microbenchmarks ---

// --- Serial vs parallel kernels (the internal/parallel subsystem) ---
//
// Pairs of benchmarks pinning the worker pool to 1 (serial fallback) vs
// GOMAXPROCS, at the shapes the benchmark models exercise, so the
// substrate speedup is visible in BENCH trajectories. Outputs are
// bit-identical between the two (see internal/tensor/parallel_test.go);
// only the wall time may differ.

// withPoolWorkers pins the kernel pool for one benchmark run.
func withPoolWorkers(b *testing.B, n int) {
	b.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(n)
	b.Cleanup(func() { parallel.SetWorkers(old) })
}

func benchMatMulAt(b *testing.B, workers int) {
	withPoolWorkers(b, workers)
	rng := tensor.NewRNG(1)
	// Model-scale GEMM: a batch of 256 activations against a 256x256
	// weight block (the dense layers of the scaled NCF/Transformer at
	// production width).
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkMatMulModelSerial(b *testing.B)   { benchMatMulAt(b, 1) }
func BenchmarkMatMulModelParallel(b *testing.B) { benchMatMulAt(b, 0) }

func benchMatMulTransAAt(b *testing.B, workers int) {
	withPoolWorkers(b, workers)
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 256, 256)
	y := tensor.Randn(rng, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulTransA(x, y)
	}
}

func BenchmarkMatMulTransASerial(b *testing.B)   { benchMatMulTransAAt(b, 1) }
func BenchmarkMatMulTransAParallel(b *testing.B) { benchMatMulTransAAt(b, 0) }

func benchRunSetAt(b *testing.B, workers int) {
	bench, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RunSet(bench, core.RunSetConfig{Run: core.RunConfig{Seed: 1, MaxEpochs: 2}, Runs: 4, Workers: workers})
	}
}

func BenchmarkRunSetSerial(b *testing.B)     { benchRunSetAt(b, 1) }
func BenchmarkRunSetConcurrent(b *testing.B) { benchRunSetAt(b, 0) }

// --- Serial vs data-parallel training steps (the engine at one stage) ---
//
// One global step at a fixed global batch and microshard count, varying
// only the worker count. Every configuration trains bit-identically
// (internal/pipeline/dp_test.go asserts it); only wall time may differ, and
// speedup requires spare cores. Kernels are pinned serial so the
// data-parallel workers are the only parallelism.

// dpEngine builds the v0.5 benchmark's one-stage engine at seed 1 and eight
// microbatches through the repo's one constructor (batch 0 = the
// benchmark's reference batch).
func dpEngine(b *testing.B, id string, workers, batch int, dropLast bool) *pipeline.Engine {
	b.Helper()
	return engineAt(b, id, workers, 8, batch, dropLast)
}

// engineAt is dpEngine at a given microbatch count.
func engineAt(b *testing.B, id string, workers, microbatches, batch int, dropLast bool) *pipeline.Engine {
	b.Helper()
	eng, _, err := core.NewEngine(core.V05, id, pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   1, Microbatches: microbatches,
		GlobalBatch: batch, Seed: 1, DropLast: dropLast,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchDPNCFStepAt measures one NCF engine step at the given worker count
// and global batch (0 = the benchmark's reference batch).
func benchDPNCFStepAt(b *testing.B, workers, batch int) {
	withPoolWorkers(b, 1)
	eng := dpEngine(b, "recommendation", workers, batch, false)
	b.Cleanup(eng.Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkDPNCFStepSerial(b *testing.B) { benchDPNCFStepAt(b, 1, 256) }
func BenchmarkDPNCFStepDP2(b *testing.B)    { benchDPNCFStepAt(b, 2, 256) }
func BenchmarkDPNCFStepDP4(b *testing.B)    { benchDPNCFStepAt(b, 4, 256) }
func BenchmarkDPNCFStepDP8(b *testing.B)    { benchDPNCFStepAt(b, 8, 256) }

// The same step at the reference batch of 64, which is what the repo
// benchmark's ncf_dp2_chan_steps steps. A quarter of the model work per
// step leaves the ring, the update and the hand-offs the larger share, and
// it is here, not at 256, that a second worker can cost more than it buys
// (BENCH_engine.json).
func BenchmarkDPNCFStepRefSerial(b *testing.B) { benchDPNCFStepAt(b, 1, 0) }
func BenchmarkDPNCFStepRefDP2(b *testing.B)    { benchDPNCFStepAt(b, 2, 0) }
func BenchmarkDPNCFStepRefDP4(b *testing.B)    { benchDPNCFStepAt(b, 4, 0) }

// benchDPImageStepAt measures one ResNet engine step (conv/BN model shape)
// at the given worker count.
func benchDPImageStepAt(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	eng := dpEngine(b, "image_classification", workers, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkDPImageStepSerial(b *testing.B) { benchDPImageStepAt(b, 1) }
func BenchmarkDPImageStepDP2(b *testing.B)    { benchDPImageStepAt(b, 2) }
func BenchmarkDPImageStepDP4(b *testing.B)    { benchDPImageStepAt(b, 4) }
func BenchmarkDPImageStepDP8(b *testing.B)    { benchDPImageStepAt(b, 8) }

func BenchmarkMatMul64(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.Randn(rng, 1, 64, 64)
	y := tensor.Randn(rng, 1, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

func BenchmarkAutogradStep(b *testing.B) {
	rng := tensor.NewRNG(3)
	w := autograd.NewParam("w", tensor.Randn(rng, 0.1, 32, 32))
	x := tensor.Randn(rng, 1, 16, 32)
	labels := make([]int, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ZeroGrad()
		tape := autograd.NewTape()
		logits := autograd.MatMul(autograd.Const(x), tape.Watch(w))
		tape.Backward(autograd.SoftmaxCrossEntropy(logits, labels))
	}
}

func BenchmarkMCTSSearch(b *testing.B) {
	board := goboard.New(5)
	s := mcts.New(mcts.Config{Sims: 32, CPuct: 1.4, Komi: 6.5}, mcts.TacticalEvaluator{Komi: 6.5}, tensor.NewRNG(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(board, false)
	}
}

func BenchmarkGoBoardLegalMoves(b *testing.B) {
	board := goboard.New(9)
	rng := tensor.NewRNG(5)
	for i := 0; i < 20; i++ {
		legal := board.LegalMoves()
		if err := board.Play(legal[rng.Intn(len(legal))]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.LegalMoves()
	}
}

// BenchmarkNCFTrainEpoch is one epoch of the suite's serial NCF run: the
// engine at one replica, one stage and one microbatch.
func BenchmarkNCFTrainEpoch(b *testing.B) {
	bench, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		b.Fatal(err)
	}
	w := bench.New(1)
	b.Cleanup(w.(*pipeline.Workload).Close)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.TrainEpoch()
	}
}

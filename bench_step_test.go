package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/benchwarm"
	"repro/internal/clock"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// Steady-state allocation benchmarks: after a short warmup, a training
// step must perform ZERO heap allocations — the tensor arena, the pooled
// autograd tape, the persistent engine workers, and the reused batch buffers
// together keep GC entirely out of the hot loop, so step time stays flat
// no matter how long training runs (the time-to-train property §3.2
// measures). CI's bench-smoke job greps these benchmarks' -benchmem output
// and fails on any nonzero allocs/op.
//
// The kernel pool is pinned to 1 worker: parallelism comes from the
// persistent data-parallel workers (which allocate nothing per step), while
// a forked kernel loop would pay one goroutine spawn per fork. DropLast
// keeps every global batch full-size so warm tape slots never resize.

const stepAllocsWarmup = 6

// warmSteps brings a step loop to its steady state and starts the timer.
// Set-up allocated megabytes (dataset, replicas); that debris is collected
// here so a GC cycle's own bookkeeping cannot land inside the timed
// region, and the runtime's sudog lists are filled after it
// (benchwarm.Parking), so a cell that parks in the timed region does not
// read as an allocation of the step's. Once warm the loop allocates
// nothing, so no further GC can trigger — that is the property under test.
func warmSteps(b *testing.B, step func()) {
	for i := 0; i < stepAllocsWarmup; i++ {
		step()
	}
	runtime.GC()
	benchwarm.Parking()
	b.ReportAllocs()
	b.ResetTimer()
}

func benchStepAllocsNCF(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	eng := dpEngine(b, "recommendation", workers, 256, true)
	b.Cleanup(eng.Close) // not deferred: the timer only stops after this function returns, and Close's arena Puts would be timed
	warmSteps(b, func() { eng.StepNext() })
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func benchStepAllocsResNet(b *testing.B, workers int) {
	withPoolWorkers(b, 1)
	eng := dpEngine(b, "image_classification", workers, 0, true)
	b.Cleanup(eng.Close) // not deferred: the timer only stops after this function returns, and Close's arena Puts would be timed
	warmSteps(b, func() { eng.StepNext() })
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkStepAllocsNCF(b *testing.B)       { benchStepAllocsNCF(b, 1) }
func BenchmarkStepAllocsNCFDP4(b *testing.B)    { benchStepAllocsNCF(b, 4) }
func BenchmarkStepAllocsResNet(b *testing.B)    { benchStepAllocsResNet(b, 1) }
func BenchmarkStepAllocsResNetDP4(b *testing.B) { benchStepAllocsResNet(b, 4) }

// BenchmarkStepAllocsResNetSerial is the step resnet_serial_ttt trains:
// K = S = M = 1, one microbatch of the reference batch of 32, the shape
// core's engineConfig gives a serial run. BenchmarkStepAllocsResNet runs
// the same 32 samples as eight microbatches of four, so its convolutions
// and BatchNorms see a batch of 4.
func BenchmarkStepAllocsResNetSerial(b *testing.B) {
	withPoolWorkers(b, 1)
	eng := engineAt(b, "image_classification", 1, 1, 0, true)
	b.Cleanup(eng.Close) // not deferred: see benchStepAllocsResNet
	warmSteps(b, func() { eng.StepNext() })
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

// benchStepPipeline drives the pipeline-parallel engine (internal/pipeline)
// through warm ResNet steps. Like the one-stage benchmarks above, the warm step
// must report 0 allocs/op — the per-slot pooled tapes, boundary-transfer
// cells, and stage-group rings keep GC out of the pipelined hot loop too.
// CI's bench-smoke job greps BenchmarkStepPipeline* alongside
// BenchmarkStepAllocs*.
func benchStepPipeline(b *testing.B, stages, workers int) {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	hp := models.DefaultImageHParams()
	var reps []*models.ImageClassification
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: workers},
		Stages:   stages, Microbatches: 4,
		GlobalBatch: hp.Batch, DatasetN: ds.Cfg.TrainN, Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewImageClassification(ds, hp, 1)
		reps = append(reps, m)
		parts, err := m.PipelineStages(stages)
		if err != nil {
			b.Fatal(err)
		}
		return pipeline.Wrap(parts)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close) // not deferred: see benchStepAllocsNCF
	eng.SetLRSchedule(reps[0].Sched)
	warmSteps(b, func() { eng.StepNext() })
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

func BenchmarkStepPipelineResNetPP4(b *testing.B)       { benchStepPipeline(b, 4, 1) }
func BenchmarkStepPipelineResNetHybrid2x2(b *testing.B) { benchStepPipeline(b, 2, 2) }

// --- Transformer step rows (BENCH_step.json; `make bench-step`) ---

// transformerPipeline builds the default Transformer's pipeline engine:
// one worker per stage, four microbatches, seed 1.
func transformerPipeline(b *testing.B, stages int) *pipeline.Engine {
	withPoolWorkers(b, 1)
	ds := datasets.GenerateMT(datasets.DefaultMTConfig())
	hp := models.DefaultTransformerHParams()
	var reps []*models.Translation
	eng, err := pipeline.New(pipeline.Config{
		Endpoint: transport.Endpoint{Workers: 1},
		Stages:   stages, Microbatches: 4,
		GlobalBatch: hp.Batch, DatasetN: len(ds.Train), Seed: 1, DropLast: true,
	}, func(worker int) []pipeline.StageReplica {
		m := models.NewTranslation(ds, hp, 1)
		reps = append(reps, m)
		parts, err := m.PipelineStages(stages)
		if err != nil {
			b.Fatal(err)
		}
		return pipeline.Wrap(parts)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close) // not deferred: see benchStepAllocsNCF
	eng.SetLRSchedule(reps[0].Sched)
	return eng
}

// BenchmarkStepPipelineTransformerPP2 is the step the repo benchmark's
// transformer_pp2_steps workload times: PP-2, four microbatches, 1F1B,
// seed 1. Like every BenchmarkStepPipeline* row it is held to 0 allocs/op
// by bench-smoke.
func BenchmarkStepPipelineTransformerPP2(b *testing.B) {
	eng := transformerPipeline(b, 2)
	warmSteps(b, func() { eng.StepNext() })
	for i := 0; i < b.N; i++ {
		eng.StepNext()
	}
}

// mtMicrobatch is the first four training pairs: one microbatch of the
// PP-2 step above.
var mtMicrobatch = []int{0, 1, 2, 3}

// BenchmarkStepTransformerMicrobatch is one serial microbatch, forward and
// backward, on a warm tape, with the tape's node count: what the two
// stages of the PP-2 step share out between them, four times a step.
func BenchmarkStepTransformerMicrobatch(b *testing.B) {
	withPoolWorkers(b, 1)
	m := models.NewTranslation(datasets.GenerateMT(datasets.DefaultMTConfig()), models.DefaultTransformerHParams(), 1)
	tape, rng := autograd.NewTape(), tensor.NewRNG(1)
	step := func() {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		tape.Reset()
		tape.Backward(m.MicrobatchLoss(tape, mtMicrobatch, rng))
	}
	for i := 0; i < stepAllocsWarmup; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(tape.Len()), "nodes")
}

// BenchmarkStepTransformerStageBusy runs one microbatch through the two
// PP-2 stages by hand, the way the engine does (boundary values into
// leaves, the leaves' gradients added into the upstream outputs), timing
// each stage's Forward and Backward* on the injectable clock. Four times
// a stage's busy time over the PP-2 row's step is that stage's busy share:
// 1F1B runs at the rate of the busier stage, so the other idles the
// difference.
func BenchmarkStepTransformerStageBusy(b *testing.B) {
	withPoolWorkers(b, 1)
	m := models.NewTranslation(datasets.GenerateMT(datasets.DefaultMTConfig()), models.DefaultTransformerHParams(), 1)
	stages, err := m.PipelineStages(2)
	if err != nil {
		b.Fatal(err)
	}
	tapes := [2]*autograd.Tape{autograd.NewTape(), autograd.NewTape()}
	rng, clk := tensor.NewRNG(1), clock.NewReal()
	var busy [2]time.Duration
	in := make([]*autograd.Var, 0, 2)
	step := func() {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		t0 := clk.Now()
		tapes[0].Reset()
		outs := stages[0].Forward(tapes[0], 0, mtMicrobatch, rng, nil)
		t1 := clk.Now()
		tapes[1].Reset()
		in = in[:0]
		for _, o := range outs {
			in = append(in, tapes[1].LeafOf(o.Value))
		}
		loss := stages[1].Forward(tapes[1], 0, mtMicrobatch, rng, in)[0]
		tapes[1].Backward(loss)
		t2 := clk.Now()
		for i, o := range outs {
			o.Grad.AddInPlace(in[i].Grad)
		}
		tapes[0].BackwardSeeded()
		t3 := clk.Now()
		busy[0] += (t1 - t0) + (t3 - t2)
		busy[1] += t2 - t1
	}
	for i := 0; i < stepAllocsWarmup; i++ {
		step()
	}
	busy = [2]time.Duration{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(busy[0].Nanoseconds())/float64(b.N), "stage0-ns/microbatch")
	b.ReportMetric(float64(busy[1].Nanoseconds())/float64(b.N), "stage1-ns/microbatch")
	b.ReportMetric(float64(tapes[0].Len()), "stage0-nodes")
	b.ReportMetric(float64(tapes[1].Len()), "stage1-nodes")
}

// --- The step outside the model (BENCH_engine.json; `make bench-engine`) ---
//
// What a data-parallel step does besides forward and backward, one kernel
// a row: the optimizer update and the gradient's trip into its reduction
// row. The ring's rows are BenchmarkRingAllReduce in internal/transport
// and the whole steps are BenchmarkDPNCFStep* in bench_test.go.

// withGrads writes a fixed pseudo-random gradient into every parameter.
func withGrads(params []*autograd.Param) []*autograd.Param {
	rng := tensor.NewRNG(11)
	for _, p := range params {
		copy(p.Grad.Data, tensor.Randn(rng, 1, p.Grad.Size()).Data)
	}
	return params
}

// ncfParams is the recommendation model's parameter list with gradients.
func ncfParams() []*autograd.Param {
	rec := models.NewRecommendation(datasets.GenerateRec(datasets.DefaultRecConfig()), models.DefaultNCFHParams(), 1)
	return withGrads(rec.Params())
}

// BenchmarkAdamStep is one Adam update over the parameter lists the
// engine rows update: NCF's (4329 elements, updated once per replica) and
// stage 0 of the PP-2 transformer.
func BenchmarkAdamStep(b *testing.B) {
	mt := models.NewTranslation(datasets.GenerateMT(datasets.DefaultMTConfig()), models.DefaultTransformerHParams(), 1)
	stages, err := mt.PipelineStages(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		params []*autograd.Param
	}{
		{"ncf", ncfParams()},
		{"transformer_stage", withGrads(stages[0].Params())},
	} {
		b.Run(row.name, func(b *testing.B) {
			adam := opt.NewAdam(row.params, 0.002, 0.9, 0.999, 1e-8, 0)
			adam.Step() // creates the moments
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adam.Step()
			}
		})
	}
}

// BenchmarkFlattenGradsScaled is one microbatch's NCF gradient scaled into
// its reduction row, which a step does once per microbatch.
func BenchmarkFlattenGradsScaled(b *testing.B) {
	params := ncfParams()
	row := make([]float64, autograd.FlatSize(params))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autograd.FlattenGradsScaled(row, params, 0.125)
	}
}

package main

// kind groups the workloads that reach the same layers. A per-layer metric
// names the kinds it is measured on; a workload of another kind does not
// reach that layer and leaves the metric out.
type kind uint8

const (
	kTTT   kind = 1 << iota // core.Run to target, serial
	kDP                     // dist engine, NCF
	kPP                     // pipeline engine, transformer
	kCkpt                   // pipeline engine with checkpoints
	kServe                  // serve.Run over a trained NCF

	kStep   = kTTT | kDP | kServe // models whose phase-split step exports batch assembly
	kEngine = kDP | kPP
	kAll    = kTTT | kDP | kPP | kCkpt | kServe
)

// metric is one named number the benchmark prints. The same fields, minus
// on, doc, and bound for per-layer metrics, are listed in BENCHMARK.json; a
// test keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen
	on     kind    // per-layer only: the workloads that must measure it
	doc    string
}

// endToEnd are the metrics of the untraced pass. Every workload prints all
// of them, so each is defined over the workload's own unit of work (see
// workload.unit).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, doc: "lower quartile of the wall of one set-up, over the set-ups the witness saw undisturbed: dataset generation, model or engine build, mesh dial, warm-up steps, serve-side training and snapshot load"},
	{name: "unit_ms_p25", unit: "ms", better: "lower", bound: 0.25, doc: "lower quartile of the wall of the workload's unit of work, over the units the witness saw undisturbed"},
	{name: "samples_per_s_p75", unit: "1/s", better: "higher", bound: 0.25, doc: "training samples (served queries for ncf_serve) per second, upper quartile over the windows the witness saw undisturbed"},
}

// perLayer are the metrics of the traced pass, grouped by the module they
// are measured at. A workload must measure every metric whose kinds include
// its own and no other: the table and the -json document leave the others
// out, and the driver's result line, which must carry every name, has 0 for
// them.
var perLayer = []metric{
	{name: "tensor.gemm_f64_gflops_square512", unit: "gflop/s", better: "higher", on: kTTT, doc: "MatMulInto 512x512x512, pool 1"},
	{name: "tensor.gemm_f64_gflops_tallskinny", unit: "gflop/s", better: "higher", on: kTTT, doc: "MatMulInto 4096x64x64, pool 1"},
	{name: "tensor.gemm_f32_gflops_square512", unit: "gflop/s", better: "higher", on: kTTT, doc: "MatMulF32Into 512x512x512, pool 1"},
	{name: "tensor.gemm_f32_gflops_tallskinny", unit: "gflop/s", better: "higher", on: kTTT, doc: "MatMulF32Into 4096x64x64, pool 1"},
	{name: "tensor.conv2d_fwd_ms", unit: "ms", better: "lower", on: kTTT, doc: "Conv2D on ResNet's widest 3x3 layer at the default batch, pool 1"},
	{name: "tensor.conv2d_bwd_ms", unit: "ms", better: "lower", on: kTTT, doc: "Conv2DBackward on the same shape"},

	{name: "data.loader_next_us", unit: "us", better: "lower", on: kAll, doc: "median Loader.Next in the phase-split step"},
	{name: "datasets.batch_assemble_ms", unit: "ms", better: "lower", on: kStep, doc: "median BatchInto / AppendTrainBatch alone (the transformer's assembly is not exported)"},
	{name: "models.forward_ms", unit: "ms", better: "lower", on: kAll, doc: "median MicrobatchLoss (batch assembly + forward) in the phase-split step"},
	{name: "autograd.backward_ms", unit: "ms", better: "lower", on: kAll, doc: "median Tape.Backward in the phase-split step"},
	{name: "opt.step_ms", unit: "ms", better: "lower", on: kAll, doc: "median Optimizer.Step in the phase-split step"},
	{name: "autograd.allocs_per_step", unit: "count", better: "lower", on: kEngine, doc: "runtime.MemStats.Mallocs delta per engine step"},

	{name: "core.time_to_train_s", unit: "s", better: "lower", on: kTTT, doc: "RunResult.TimeToTrain of one run, spans off; depends on the seed's epochs to target"},
	{name: "core.epochs_to_target", unit: "count", better: "lower", on: kTTT, doc: "epochs the seed needed; repeats exactly for a fixed seed"},
	{name: "core.final_quality", unit: "ratio", better: "higher", on: kTTT, doc: "quality at the stopping epoch"},
	{name: "core.train_epoch_s_p50", unit: "s", better: "lower", on: kTTT, doc: "median Workload.TrainEpoch span"},
	{name: "core.eval_s_p50", unit: "s", better: "lower", on: kTTT, doc: "median Workload.Evaluate span"},
	{name: "core.eval_share", unit: "ratio", better: "lower", on: kTTT, doc: "sum of Evaluate spans over TimeToTrain"},
	{name: "core.harness_other_share", unit: "ratio", better: "lower", on: kTTT, doc: "(TimeToTrain - train - eval) over TimeToTrain"},
	{name: "mlog.events_per_run", unit: "count", better: "lower", on: kTTT, doc: "MLLOG events one run emits"},
	{name: "mlog.ns_per_event", unit: "ns", better: "lower", on: kTTT, doc: "Logger.Simple on an in-memory logger"},

	{name: "dist.ring_bytes_per_step", unit: "bytes", better: "lower", on: kDP, doc: "Engine.Stats ring payload per step (exact)"},
	{name: "dist.ring_msgs_per_step", unit: "count", better: "lower", on: kDP, doc: "Engine.Stats ring transfers per step (exact)"},
	{name: "dist.allreduce_ms_p50_chan", unit: "ms", better: "lower", on: kDP, doc: "stand-alone 2-member Ring.AllReduce at the engine's FlatSize over LocalFabric"},
	{name: "dist.allreduce_ms_p50_tcp", unit: "ms", better: "lower", on: kDP, doc: "the same over a loopback TCPMesh"},
	{name: "dist.allreduce_share", unit: "ratio", better: "lower", on: kDP, doc: "all-reduce probe on the workload's transport over the quiet step; fully exposed, reduction starts after backward"},
	{name: "dist.dp2_over_dp1_step_ratio", unit: "ratio", better: "lower", on: kDP, doc: "quiet step over a DP-1 engine's of the same spec"},

	{name: "transport.chan_rtt_us", unit: "us", better: "lower", on: kDP, doc: "8-float ping-pong over LocalFabric"},
	{name: "transport.tcp_rtt_us", unit: "us", better: "lower", on: kDP, doc: "8-float ping-pong over loopback TCPMesh"},
	{name: "transport.chan_mb_per_s", unit: "MB/s", better: "higher", on: kDP, doc: "1 MiB frames one way over LocalFabric"},
	{name: "transport.tcp_mb_per_s", unit: "MB/s", better: "higher", on: kDP, doc: "1 MiB frames one way over loopback TCPMesh"},
	{name: "transport.tcp_over_chan_step_ratio", unit: "ratio", better: "lower", on: kDP, doc: "DP-2 quiet step over TCP over the same over channels"},

	{name: "pipeline.activation_bytes_per_step", unit: "bytes", better: "lower", on: kPP, doc: "Engine.Stats boundary payload per step (exact)"},
	{name: "pipeline.activation_sends_per_step", unit: "count", better: "lower", on: kPP, doc: "Engine.Stats boundary transfers per step (exact)"},
	{name: "pipeline.ring_bytes_per_step", unit: "bytes", better: "lower", on: kPP, doc: "Engine.Stats stage-group ring payload per step (exact)"},
	{name: "pipeline.bubble_share_analytic", unit: "ratio", better: "lower", on: kPP, doc: "(S-1)/(M+S-1)"},
	{name: "pipeline.pp2_over_pp1_step_ratio", unit: "ratio", better: "lower", on: kPP, doc: "quiet step over a PP-1 engine's of the same spec"},

	{name: "ckpt.stall_ms_p50", unit: "ms", better: "lower", on: kCkpt, doc: "median CaptureTrainState + Writer.Write stall, spans off: the issue's ckpt_stall_ms_p50"},
	{name: "ckpt.resume_ms_p50", unit: "ms", better: "lower", on: kCkpt, doc: "median ckpt.Latest + RestoreTrainState, spans off: the issue's resume_ms_p50"},
	{name: "ckpt.capture_ms", unit: "ms", better: "lower", on: kCkpt, doc: "median CaptureTrainState"},
	{name: "ckpt.save_ms", unit: "ms", better: "lower", on: kCkpt, doc: "median Writer.Write"},
	{name: "ckpt.load_ms", unit: "ms", better: "lower", on: kCkpt, doc: "median ckpt.Latest"},
	{name: "ckpt.restore_ms", unit: "ms", better: "lower", on: kCkpt, doc: "median RestoreTrainState"},
	{name: "ckpt.bytes", unit: "bytes", better: "lower", on: kCkpt, doc: "size of one checkpoint file"},
	{name: "ckpt.save_mb_per_s", unit: "MB/s", better: "higher", on: kCkpt, doc: "ckpt.bytes over ckpt.save_ms"},
	{name: "ckpt.stall_share", unit: "ratio", better: "lower", on: kCkpt, doc: "sum of capture+write stalls over timed wall"},

	{name: "serve.infer_batch1_us", unit: "us", better: "lower", on: kServe, doc: "median InferBatch of 1 sample"},
	{name: "serve.infer_batch8_us", unit: "us", better: "lower", on: kServe, doc: "median InferBatch of 8 samples"},
	{name: "serve.queue_wait_ms_p50", unit: "ms", better: "lower", on: kServe, doc: "latency p50 at 2000 QPS minus serve.infer_batch8_us"},
	{name: "serve.latency_ms_p99_at_500qps", unit: "ms", better: "lower", on: kServe, doc: "server scenario p99"},
	{name: "serve.latency_ms_p99_at_2000qps", unit: "ms", better: "lower", on: kServe, doc: "server scenario p99"},
	{name: "serve.latency_ms_p99_at_8000qps", unit: "ms", better: "lower", on: kServe, doc: "server scenario p99; rejections begin near this rate"},
	{name: "serve.rejected_share_at_8000qps", unit: "ratio", better: "lower", on: kServe, doc: "Rejected over Queries"},
	{name: "serve.max_rate_ok_qps", unit: "1/s", better: "higher", on: kServe, doc: "highest of 500/2000/8000 QPS with p99 <= 10 ms and no rejection"},
	{name: "serve.achieved_over_target_qps", unit: "ratio", better: "higher", on: kServe, doc: "AchievedQPS over 2000: how late the generator ran"},
	{name: "models.snapshot_load_ms", unit: "ms", better: "lower", on: kServe, doc: "LoadSnapshotFile of the trained NCF parameters"},

	{name: "bench.unit_ms_p50", unit: "ms", better: "lower", on: kAll, doc: "median wall of the workload's unit, spans off"},
	{name: "bench.unit_ms_p99", unit: "ms", better: "lower", on: kAll, doc: "p99 wall of the workload's unit, spans off (the maximum when there are fewer than 100 samples)"},
	{name: "process.peak_rss_mb", unit: "MB", better: "lower", on: kAll, doc: "VmHWM from /proc/self/status; process-wide, so cumulative over a whole-set run"},
	{name: "process.gc_cycles", unit: "count", better: "lower", on: kAll, doc: "runtime.MemStats.NumGC at the end of the pass; process-wide"},
	{name: "process.trace_overhead_pct", unit: "%", better: "lower", on: kAll, doc: "quiet unit with spans on over the same with spans off, minus one"},
}

// workload is one entry of the benchmark's set. run fills rc.metrics and
// counts operations; unit names what unit_ms_p25 times. why is the line in
// BENCHMARK.json, which has no other place to say whether the loop is open
// or closed.
type workload struct {
	name string
	kind kind
	why  string
	unit string
	run  func(rc *runCtx)
}

var workloads = []workload{
	{"resnet_serial_ttt", kTTT,
		"closed loop, 1 caller: core.Run of ResNet f64 to its quality target. Compute-bound: conv/GEMM kernels, autograd and eval do the work, comm layers none",
		"one epoch with its evaluation inside core.Run", runTTT(false)},
	{"resnet_f32_ttt", kTTT,
		"closed loop, 1 caller: the same model on the hand-mirrored f32 kernel path; pairs with the f64 row so a GEMM dedupe or fast kernel is judged on both",
		"one epoch with its evaluation inside core.Run", runTTT(true)},
	{"ncf_dp2_chan_steps", kDP,
		"closed loop, 1 caller: NCF DP-2 steps over channels. Tiny step, 35 KB gradient: ring hand-offs and worker wake-ups dominate, GEMMs are negligible",
		"one Engine.StepNext", runSteps(ncfChan)},
	{"ncf_dp2_tcp_steps", kDP,
		"closed loop, 1 caller: the same spec as two shard engines over loopback TCP; the gap to the chan row is the transport's TCP cost",
		"one Engine.StepNext", runSteps(ncfTCP)},
	{"transformer_pp2_steps", kPP,
		"closed loop, 1 caller: PP-2 1F1B transformer steps. Stage-boundary transfers, the largest gradient, and the only hot path that still allocates",
		"one Engine.StepNext", runSteps(transformerPP2)},
	{"transformer_pp2_ckpt_steps", kCkpt,
		"closed loop, 1 caller: the same engine with capture+write every 25 steps, then restores checked against the live run. Checkpoint writes beside reads on the largest state",
		"one CaptureTrainState + ckpt.Writer.Write stall", runCkpt},
	{"ncf_serve", kServe,
		"open loop, Poisson 2000 QPS timed from scheduled arrival (batcher wait dominates), in turns with closed-loop offline batches (raw throughput); traced adds 500 and 8000 QPS",
		"one served query at 2000 QPS, from scheduled arrival", runServe},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

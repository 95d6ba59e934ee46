package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/arena"
	"repro/internal/autograd"
	"repro/internal/data"
	"repro/internal/datasets"
	"repro/internal/dist"
	"repro/internal/mlog"
	"repro/internal/models"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// probeTime is how long each stand-alone probe loops. Probes are sized in
// time, not share of budget: they measure a layer alone and do not need
// the workload's sample count.
func (rc *runCtx) probeTime() time.Duration {
	if rc.smoke {
		return 2 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// loopFor calls op for about d under one span and returns the mean wall
// per call. Calls of a microsecond or two are timed eight at a time: two
// clock reads per call would be a tenth of what they measure.
func loopFor(rc *runCtx, name string, d time.Duration, op func()) time.Duration {
	t0 := rc.clk.Now()
	op() // warms pools and caches, and sizes the batch
	batch := 8
	if rc.clk.Now()-t0 > 50*time.Microsecond {
		batch = 1
	}
	h := rc.tr.begin(name, 0)
	start := rc.clk.Now()
	n := 0
	for rc.clk.Now()-start < d {
		for i := 0; i < batch; i++ {
			op()
		}
		n += batch
	}
	wall := rc.clk.Now() - start
	rc.tr.end(h)
	return wall / time.Duration(n)
}

func gflops(n, k, m int, per time.Duration) float64 {
	return 2 * float64(n) * float64(k) * float64(m) / float64(per.Nanoseconds())
}

// tensorProbes times the GEMM and convolution kernels alone, on the shapes
// of BENCH_gemm.json and of ResNet's widest 3x3 layer, with the kernel
// pool at 1 so the number is single-core kernel quality.
func tensorProbes(rc *runCtx) {
	workers := parallel.Workers()
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(workers)
	rng := tensor.NewRNG(1)
	for _, shape := range []struct {
		tag     string
		n, k, m int
	}{{"square512", 512, 512, 512}, {"tallskinny", 4096, 64, 64}} {
		a, b, c := tensor.Randn(rng, 1, shape.n, shape.k), tensor.Randn(rng, 1, shape.k, shape.m), tensor.New(shape.n, shape.m)
		per := loopFor(rc, "tensor.MatMulInto", rc.probeTime(), func() { tensor.MatMulInto(c, a, b) })
		rc.set("tensor.gemm_f64_gflops_"+shape.tag, gflops(shape.n, shape.k, shape.m, per))

		a32, b32, c32 := tensor.NewF32(shape.n, shape.k), tensor.NewF32(shape.k, shape.m), tensor.NewF32(shape.n, shape.m)
		a32.FromF64(a, tensor.Float32)
		b32.FromF64(b, tensor.Float32)
		per = loopFor(rc, "tensor.MatMulF32Into", rc.probeTime(), func() { tensor.MatMulF32Into(c32, a32, b32) })
		rc.set("tensor.gemm_f32_gflops_"+shape.tag, gflops(shape.n, shape.k, shape.m, per))
	}
	// s2b2's 3x3 convolutions: 2*Width channels on the halved image.
	hp, cfg := models.DefaultImageHParams(), datasets.DefaultImageConfig()
	ch, side := 2*hp.Width, cfg.Size/2
	x := tensor.Randn(rng, 1, hp.Batch, ch, side, side)
	w := tensor.Randn(rng, 1, ch, ch, 3, 3)
	var out *tensor.Tensor
	per := loopFor(rc, "tensor.Conv2D", rc.probeTime(), func() { out = tensor.Conv2D(x, w, nil, 1, 1) })
	rc.set("tensor.conv2d_fwd_ms", msOf(per))
	dout := tensor.Randn(rng, 1, out.Shape...)
	per = loopFor(rc, "tensor.Conv2DBackward", rc.probeTime(), func() { tensor.Conv2DBackward(x, w, dout, 1, 1, false) })
	rc.set("tensor.conv2d_bwd_ms", msOf(per))
}

// mlogProbe times the logger alone.
func mlogProbe(rc *runCtx) {
	logger := mlog.NewLogger(nil)
	per := loopFor(rc, "mlog.Logger.Simple", rc.probeTime()/3, func() {
		if len(logger.Events) > 1<<12 {
			logger.Events = logger.Events[:0]
		}
		logger.Simple(0, mlog.KeySeed, 1)
	})
	rc.set("mlog.ns_per_event", float64(per.Nanoseconds()))
}

// pair is two connected mesh endpoints and how to release them.
type pair struct {
	eps   []transport.Mesh
	close func()
}

func chanPair() pair {
	fab := transport.NewLocalFabric(2, nil)
	eps := []transport.Mesh{fab.Endpoint(0), fab.Endpoint(1)}
	return pair{eps, func() {
		for _, ep := range eps {
			ep.Close()
		}
	}}
}

func tcpPair() (pair, error) {
	meshes, err := loopbackMeshes(2)
	if err != nil {
		return pair{}, err
	}
	return pair{[]transport.Mesh{meshes[0], meshes[1]}, func() {
		for _, m := range meshes {
			m.Close()
		}
	}}, nil
}

// commProbes times the ring all-reduce at the engine's gradient size and
// the raw transport (latency on 8 floats, bandwidth on 1 MiB frames) over
// both backends, and returns the two all-reduce medians in ms.
func commProbes(rc *runCtx, flat, members, rows int) (chanMS, tcpMS float64, err error) {
	tcp, err := tcpPair()
	if err != nil {
		return 0, 0, err
	}
	defer tcp.close()
	ch := chanPair()
	defer ch.close()
	if chanMS, err = backendProbes(rc, "chan", ch.eps, flat, members, rows); err != nil {
		return 0, 0, err
	}
	tcpMS, err = backendProbes(rc, "tcp", tcp.eps, flat, members, rows)
	return chanMS, tcpMS, err
}

// backendProbes runs the all-reduce and mesh probes over one backend.
func backendProbes(rc *runCtx, tag string, eps []transport.Mesh, flat, members, rows int) (float64, error) {
	ms, err := allreduceProbe(rc, eps, flat, members, rows)
	if err != nil {
		return 0, fmt.Errorf("%s all-reduce probe: %w", tag, err)
	}
	rc.set("dist.allreduce_ms_p50_"+tag, ms)
	rtt, mbps, err := meshProbe(rc, tag, eps)
	if err != nil {
		return 0, fmt.Errorf("%s mesh probe: %w", tag, err)
	}
	rc.set("transport."+tag+"_rtt_us", rtt)
	rc.set("transport."+tag+"_mb_per_s", mbps)
	return ms, nil
}

// allreduceProbe runs rounds of a 2-member Ring.AllReduce, member 1 on its
// own goroutine, and returns member 0's median wall per round in ms.
func allreduceProbe(rc *runCtx, eps []transport.Mesh, flat, members, rows int) (float64, error) {
	rounds := 400
	if rc.smoke {
		rounds = 20
	}
	pool := arena.New()
	ring := dist.NewRingOver(eps, members, flat, pool)
	defer ring.Close()
	rng := tensor.NewRNG(1)
	grads := make([][]float64, rows)
	for i := range grads {
		grads[i] = tensor.Randn(rng, 1, flat).Data
	}
	per := rows / members
	errs := make([]error, members)
	var wg sync.WaitGroup
	for w := 1; w < members; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			agg := make([]float64, flat)
			for i := 0; i < rounds && errs[w] == nil; i++ {
				errs[w] = ring.AllReduce(w, grads, w*per, (w+1)*per, agg)
			}
			if errs[w] != nil {
				ring.Abort(w, errs[w])
			}
		}(w)
	}
	agg := make([]float64, flat)
	durs := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds && errs[0] == nil; i++ {
		h := rc.tr.begin("dist.Ring.AllReduce", i)
		t0 := rc.clk.Now()
		errs[0] = ring.AllReduce(0, grads, 0, per, agg)
		durs = append(durs, rc.clk.Now()-t0)
		rc.tr.end(h)
	}
	if errs[0] != nil {
		ring.Abort(0, errs[0])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return median(durs, time.Millisecond), nil
}

// meshProbe measures an 8-float round trip and one-way 1 MiB frames
// between ranks 0 and 1. Rank 1 echoes (latency) then sinks (bandwidth).
func meshProbe(rc *runCtx, tag string, eps []transport.Mesh) (rttUS, mbps float64, err error) {
	const (
		frameElems = 1 << 17 // 1 MiB of float64
		stream     = 7
	)
	pings, frames := 2000, 64
	if rc.smoke {
		pings, frames = 50, 4
	}
	var peerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		small, big := make([]float64, 8), make([]float64, frameElems)
		for i := 0; i < pings; i++ {
			got, err := eps[1].Recv(0, stream, small)
			if err == nil {
				err = eps[1].Send(0, stream, got)
			}
			if err != nil {
				peerErr = err
				return
			}
		}
		for i := 0; i < frames; i++ {
			if _, err := eps[1].Recv(0, stream, big); err != nil {
				peerErr = err
				return
			}
		}
		// One word back, so the sender's clock stops after the last frame
		// has arrived.
		peerErr = eps[1].Send(0, stream, small[:1])
	}()

	small, big := make([]float64, 8), make([]float64, frameElems)
	h := rc.tr.begin("transport."+tag+".pingpong", 0)
	t0 := rc.clk.Now()
	for i := 0; i < pings && err == nil; i++ {
		if err = eps[0].Send(1, stream, small); err == nil {
			_, err = eps[0].Recv(1, stream, small)
		}
	}
	rtt := (rc.clk.Now() - t0) / time.Duration(pings)
	rc.tr.end(h)

	h = rc.tr.begin("transport."+tag+".frames", 0)
	t0 = rc.clk.Now()
	for i := 0; i < frames && err == nil; i++ {
		err = eps[0].Send(1, stream, big)
	}
	if err == nil {
		_, err = eps[0].Recv(1, stream, small)
	}
	wall := rc.clk.Now() - t0
	rc.tr.end(h)
	if err != nil {
		// Unblock the peer before waiting for it.
		eps[0].Close()
	}
	wg.Wait()
	if err == nil {
		err = peerErr
	}
	if err != nil {
		return 0, 0, err
	}
	return float64(rtt) / float64(time.Microsecond), float64(frames*frameElems*8) / 1e6 / wall.Seconds(), nil
}

// phaseModel is a serial model opened up into the calls a training step
// makes, so that each can be timed from outside.
type phaseModel struct {
	params   []*autograd.Param
	loss     func(tape *autograd.Tape, idx []int, rng *tensor.RNG) *autograd.Var
	opt      opt.Optimizer
	loader   *data.Loader
	dtype    tensor.DType
	assemble func(idx []int, rng *tensor.RNG) // nil where the model does not export it
}

func newPhaseModel(model string, seed uint64) phaseModel {
	rng := tensor.NewRNG(seed)
	switch model {
	case "ncf":
		ds := datasets.GenerateRec(datasets.DefaultRecConfig())
		hp := models.DefaultNCFHParams()
		m := models.NewRecommendation(ds, hp, seed)
		var users, items []int
		var labels []float64
		return phaseModel{params: m.Params(), loss: m.MicrobatchLoss, opt: m.Opt,
			loader: data.NewLoader(len(ds.Train), hp.Batch, rng),
			assemble: func(idx []int, rng *tensor.RNG) {
				users, items, labels = ds.AppendTrainBatch(users[:0], items[:0], labels[:0], idx, hp.NegRatio, rng)
			}}
	case "transformer":
		ds := datasets.GenerateMT(datasets.DefaultMTConfig())
		hp := models.DefaultTransformerHParams()
		m := models.NewTranslation(ds, hp, seed)
		return phaseModel{params: m.Params(), loss: m.MicrobatchLoss, opt: m.Opt,
			loader: data.NewLoader(len(ds.Train), hp.Batch, rng)}
	}
	ds := datasets.GenerateImages(datasets.DefaultImageConfig())
	hp := models.DefaultImageHParams()
	dtype := tensor.Float64
	if model == "resnet_f32" {
		dtype = tensor.Float32
		hp.Numerics.Compute = dtype
	}
	m := models.NewImageClassification(ds, hp, seed)
	var x *tensor.Tensor
	var labels []int
	aug := &datasets.Augment{Flip: true, CropPad: 1, Jitter: 0.1}
	return phaseModel{params: m.Params(), loss: m.MicrobatchLoss, opt: m.Opt, dtype: dtype,
		loader: data.NewLoader(ds.Cfg.TrainN, hp.Batch, rng),
		assemble: func(idx []int, rng *tensor.RNG) {
			aug.RNG = rng
			x, labels = ds.BatchInto(x, labels, true, idx, aug)
		}}
}

// phaseSplit runs the harness's own training step on the workload's model
// (Loader.Next, MicrobatchLoss, Tape.Backward, Optimizer.Step), one span
// per call, and reports each phase's median.
func phaseSplit(rc *runCtx, model string, budget time.Duration) {
	pm := newPhaseModel(model, rc.seed)
	tape := autograd.NewTape()
	tape.SetDType(pm.dtype)
	rng := tensor.NewRNG(rc.seed ^ 0xbe9c)
	n := 2*int(budget/time.Millisecond) + 64
	laps := func() []time.Duration { return make([]time.Duration, 0, n) }
	next, asm, fwd, bwd, step := laps(), laps(), laps(), laps(), laps()
	lap := func(name string, id int, into *[]time.Duration, f func()) {
		h := rc.tr.begin(name, id)
		t0 := rc.clk.Now()
		f()
		*into = append(*into, rc.clk.Now()-t0)
		rc.tr.end(h)
	}
	start := rc.clk.Now()
	for i := 0; i < 3 || (rc.clk.Now()-start < budget && i < n); i++ {
		h := rc.tr.begin("phase_split.step", i)
		var idx []int
		lap("data.Loader.Next", i, &next, func() { idx, _ = pm.loader.Next() })
		if pm.assemble != nil {
			lap("datasets.assemble_batch", i, &asm, func() { pm.assemble(idx, rng) })
		}
		for _, p := range pm.params {
			p.ZeroGrad()
		}
		tape.Reset()
		var loss *autograd.Var
		lap("models.MicrobatchLoss", i, &fwd, func() { loss = pm.loss(tape, idx, rng) })
		lap("autograd.Tape.Backward", i, &bwd, func() { tape.Backward(loss) })
		lap("opt.Optimizer.Step", i, &step, pm.opt.Step)
		rc.tr.end(h)
	}
	rc.set("data.loader_next_us", median(next, time.Microsecond))
	if pm.assemble != nil {
		rc.set("datasets.batch_assemble_ms", median(asm, time.Millisecond))
	}
	rc.set("models.forward_ms", median(fwd, time.Millisecond))
	rc.set("autograd.backward_ms", median(bwd, time.Millisecond))
	rc.set("opt.step_ms", median(step, time.Millisecond))
}

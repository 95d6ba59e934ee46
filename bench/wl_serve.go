package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// serveRates are the server-scenario arrival rates. The middle one carries
// the end-to-end latency metrics; 8000 QPS is where admission rejections
// begin, so it is reported per layer only.
var serveRates = []float64{500, 2000, 8000}

const (
	gatedRate      = 2000
	sloMS          = 10   // latency limit for serve.max_rate_ok_qps, on p99
	offlineQueries = 2000 // one offline batch, about 3 ms: one throughput window, short enough to fall between the host's slow spells
	serveRounds    = 4    // the untraced pass alternates server and offline phases
	serveEpochs    = 2    // NCF training in set-up
)

// serveRig is ncf_serve's set-up: NCF trained for serveEpochs, its
// parameters saved to a snapshot file and loaded back into a predictor.
type serveRig struct {
	backend  serve.Backend
	pred     *models.RecPredictor
	snapPath string
}

func (r *serveRig) close() { os.Remove(r.snapPath) }

func buildServeRig(rc *runCtx) (*serveRig, error) {
	generateSuiteDatasets()
	ds := datasets.GenerateRec(datasets.DefaultRecConfig()) // the predictor's copy, as cmd/mlperf-serve makes one
	bench, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		return nil, err
	}
	run := core.Run(bench, core.RunConfig{Seed: rc.seed, Clock: rc.clk, MaxEpochs: serveEpochs, CaptureParams: true})
	if run.Err != nil {
		return nil, fmt.Errorf("train: %w", run.Err)
	}
	if run.FinalParams == nil {
		return nil, fmt.Errorf("train: no parameter snapshot")
	}
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return nil, err
	}
	r := &serveRig{snapPath: filepath.Join(rc.outDir, fmt.Sprintf("ncf-%d.snap", rc.seed))}
	if err := run.FinalParams.SaveFile(r.snapPath); err != nil {
		return nil, err
	}
	snap, err := models.LoadSnapshotFile(r.snapPath)
	if err != nil {
		r.close()
		return nil, err
	}
	if r.pred, err = models.NewRecPredictor(ds, models.DefaultNCFHParams(), snap, models.RecPoolNegatives, rc.seed); err != nil {
		r.close()
		return nil, err
	}
	r.backend = serve.Backend{
		Name:       "recommendation",
		Samples:    r.pred.Samples(),
		NewContext: func() serve.InferContext { return r.pred.NewContext() },
	}
	return r, nil
}

// serveCfg is the batcher every phase runs under. queueCap 0 is the
// harness default of 4 x MaxBatch.
func serveCfg(rc *runCtx, scenario serve.Scenario, queries int, qps float64, queueCap int) serve.Config {
	return serve.Config{
		Scenario: scenario, Queries: queries, Seed: rc.seed, TargetQPS: qps,
		MaxBatch: 8, MaxWait: 2 * time.Millisecond, QueueCap: queueCap, Workers: 1, Clock: rc.clk,
	}
}

// gatedQueueCap is the admission queue of the phases whose queries count as
// operations. The sandbox stalls a process for 50 ms now and then; at 2000
// QPS the default queue of 32 then rejects a hundred queries that no change
// to the program caused. A queue this deep turns such a stall into tail
// latency, where it belongs, and a workload on which no operation fails.
const gatedQueueCap = 4096

// serverPhase runs the server scenario at one rate for about d. Every query
// is an operation. It fails if its prediction differs from single-stream's
// for the same sample and, in a gated phase, if it is rejected.
func (r *serveRig) serverPhase(rc *runCtx, tr *tracer, qps float64, d time.Duration, single []float64, gated bool) (serve.Report, bool) {
	queries := int(qps * d.Seconds())
	if queries < 100 {
		queries = 100
	}
	h := tr.begin(fmt.Sprintf("serve.Run.server_%gqps", qps), 0)
	start := rc.clk.Now()
	queueCap := 0
	if gated {
		queueCap = gatedQueueCap
	}
	rep, err := serve.Run(r.backend, serveCfg(rc, serve.Server, queries, qps, queueCap))
	tr.end(h)
	if err != nil {
		rc.fail(err)
		return rep, false
	}
	rc.op(rep.Completed+rep.Rejected == rep.Queries, "%g QPS: %d completed + %d rejected != %d queries", qps, rep.Completed, rep.Rejected, rep.Queries)
	wrong := 0
	for i, p := range rep.Predictions {
		if !math.IsNaN(p) && p != single[i%len(single)] {
			wrong++
		}
	}
	failed := wrong
	if gated {
		failed += rep.Rejected
	}
	rc.count(rep.Queries, failed, "%g QPS: %d rejected, %d predictions differ from single-stream", qps, rep.Rejected, wrong)
	// One span per query, from the report: the harness stamps arrival and
	// completion itself, and bench sees them only through serve.Report.
	if tr != nil && rep.Rejected == 0 {
		for i, lat := range rep.Latencies {
			if len(tr.spans) == cap(tr.spans) {
				tr.dropped += len(rep.Latencies) - i
				break
			}
			at := start + rep.Schedule[i]
			tr.spans = append(tr.spans, span{Name: "serve.query", Start: at, End: at + lat, Parent: h, ID: int32(i), Async: true})
		}
	}
	return rep, true
}

// offlinePhase runs offline batches for about d and returns each one's
// achieved rate with the witness's readings around it: generator, batcher
// and worker keep both cores busy.
func (r *serveRig) offlinePhase(rc *runCtx, tr *tracer, d time.Duration) ([]sample, bool) {
	var rates []sample
	start := rc.clk.Now()
	after := rc.wit.read(2)
	for i := 0; i == 0 || rc.clk.Now()-start < d; i++ {
		before := after
		h := tr.begin("serve.Run.offline", i)
		rep, err := serve.Run(r.backend, serveCfg(rc, serve.Offline, rc.steps(offlineQueries), 0, 0))
		tr.end(h)
		if err != nil {
			rc.fail(err)
			return nil, false
		}
		after = rc.wit.read(2)
		rc.count(rep.Queries, rep.Queries-rep.Completed, "offline: %d of %d queries completed", rep.Completed, rep.Queries)
		rates = append(rates, sample{rep.AchievedQPS, slower(before, after)})
	}
	return rates, true
}

func runServe(rc *runCtx) {
	parallel.SetWorkers(0) // what cmd/mlperf-serve users get
	r, ok := setUp(rc, 2, func() (*serveRig, error) { return buildServeRig(rc) }, (*serveRig).close)
	if !ok {
		return
	}
	defer r.close()

	// Single-stream over the whole pool: the predictions every other
	// scenario must reproduce, sample by sample.
	h := rc.tr.begin("serve.Run.single_stream", 0)
	ss, err := serve.Run(r.backend, serveCfg(rc, serve.SingleStream, r.backend.Samples, 0, 0))
	rc.tr.end(h)
	if err != nil {
		rc.fail(err)
		return
	}
	single := ss.Predictions

	if !rc.traced {
		// Server and offline phases take turns, so that a slow spell of
		// the host cannot swallow the whole of either.
		// A query's latency is the batcher's 2 ms timer, which the host
		// does not slow: the witness does not judge it.
		var latencies, offline []sample
		for round := 0; round < serveRounds; round++ {
			rep, ok := r.serverPhase(rc, nil, gatedRate, rc.share(0.6/serveRounds), single, true)
			if !ok {
				return
			}
			rates, ok := r.offlinePhase(rc, nil, rc.share(0.3/serveRounds))
			if !ok {
				return
			}
			for _, d := range rep.Latencies {
				latencies = append(latencies, sample{v: msOf(d)})
			}
			offline = append(offline, rates...)
		}
		rc.report(latencies, offline)
		return
	}

	maxOK := 0.0
	var gated serve.Report
	for _, qps := range serveRates {
		share := 0.15
		if qps == gatedRate {
			share = 0.3
		}
		rep, ok := r.serverPhase(rc, rc.tr, qps, rc.share(share), single, qps == gatedRate)
		if !ok {
			return
		}
		rc.set(fmt.Sprintf("serve.latency_ms_p99_at_%gqps", qps), msOf(rep.P99))
		if rep.Rejected == 0 && msOf(rep.P99) <= sloMS {
			maxOK = qps
		}
		if qps == gatedRate {
			gated = rep
		} else if qps > gatedRate {
			rc.set("serve.rejected_share_at_8000qps", float64(rep.Rejected)/float64(rep.Queries))
		}
	}
	rc.set("serve.max_rate_ok_qps", maxOK)
	rc.set("serve.achieved_over_target_qps", gated.AchievedQPS/gatedRate)
	if _, ok := r.offlinePhase(rc, rc.tr, rc.share(0.1)); !ok {
		return
	}
	// Spans off, same rate, for the tracing overhead. serve.Run itself is
	// one span, so this is the cost of the per-query spans added after.
	h = rc.tr.begin("serve.Run.server_2000qps (no query spans)", 0)
	off, ok := r.serverPhase(rc, nil, gatedRate, rc.share(0.15), single, true)
	rc.tr.end(h)
	if !ok {
		return
	}
	rc.set("process.trace_overhead_pct", 100*(quiet(gated.Latencies, time.Millisecond)/quiet(off.Latencies, time.Millisecond)-1))
	rc.set("bench.unit_ms_p50", msOf(off.P50))
	rc.set("bench.unit_ms_p99", msOf(off.P99))

	ctx := r.pred.NewContext()
	samples, out := make([]int, 8), make([]float64, 8)
	for i := range samples {
		samples[i] = (i * 11) % r.backend.Samples
	}
	b1 := loopFor(rc, "RecInferCtx.InferBatch.1", rc.probeTime(), func() { ctx.InferBatch(samples[:1], out) })
	b8 := loopFor(rc, "RecInferCtx.InferBatch.8", rc.probeTime(), func() { ctx.InferBatch(samples, out) })
	rc.set("serve.infer_batch1_us", float64(b1)/float64(time.Microsecond))
	rc.set("serve.infer_batch8_us", float64(b8)/float64(time.Microsecond))
	rc.set("serve.queue_wait_ms_p50", msOf(gated.P50)-msOf(b8))

	var loads []time.Duration
	for i := 0; i < 20; i++ {
		h := rc.tr.begin("models.LoadSnapshotFile", i)
		t0 := rc.clk.Now()
		_, err := models.LoadSnapshotFile(r.snapPath)
		loads = append(loads, rc.clk.Now()-t0)
		rc.tr.end(h)
		rc.op(err == nil, "load snapshot: %v", err)
	}
	rc.set("models.snapshot_load_ms", median(loads, time.Millisecond))
	phaseSplit(rc, "ncf", rc.share(0.1))
}

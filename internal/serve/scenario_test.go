package serve_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/leakcheck"
	"repro/internal/mlog"
	"repro/internal/models"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// trainedBackend trains the recommendation benchmark once (two epochs),
// snapshots its parameters through the core.Run CaptureParams handoff, and
// builds a serving backend over the restored predictor. Cached across
// tests — the snapshot is immutable.
var (
	backendOnce sync.Once
	backendVal  serve.Backend
	backendPred *models.RecPredictor
	backendErr  error
)

func trainedBackend(t testing.TB) (serve.Backend, *models.RecPredictor) {
	backendOnce.Do(func() {
		b, err := core.FindBenchmark(core.V05, "recommendation")
		if err != nil {
			backendErr = err
			return
		}
		r := core.Run(b, core.RunConfig{Seed: 7, MaxEpochs: 2, CaptureParams: true})
		if r.Err != nil {
			backendErr = r.Err
			return
		}
		if r.FinalParams == nil {
			t.Fatal("core.Run with CaptureParams returned no FinalParams")
		}
		if ev := mlog.Find(r.Log.Events, mlog.KeySnapshotDigest); ev == nil {
			t.Error("training log has no snapshot_digest event")
		} else if ev.Value != r.FinalParams.Digest() {
			t.Errorf("logged digest %v != snapshot digest %s", ev.Value, r.FinalParams.Digest())
		}
		ds := datasets.GenerateRec(datasets.DefaultRecConfig())
		pred, err := models.NewRecPredictor(ds, models.DefaultNCFHParams(), r.FinalParams, 3, 7)
		if err != nil {
			backendErr = err
			return
		}
		backendPred = pred
		backendVal = serve.Backend{
			Name:       "recommendation",
			Samples:    pred.Samples(),
			NewContext: func() serve.InferContext { return pred.NewContext() },
		}
	})
	if backendErr != nil {
		t.Fatalf("trainedBackend: %v", backendErr)
	}
	return backendVal, backendPred
}

// TestServeAllScenarios: the end-to-end acceptance path — train a small
// NCF, snapshot, and serve it under all four LoadGen scenarios, each
// completing every query with an R-7 latency summary and (where gated) a
// valid SLO verdict.
func TestServeAllScenarios(t *testing.T) {
	defer leakcheck.Check(t)()
	b, _ := trainedBackend(t)
	for _, sc := range serve.Scenarios() {
		sc := sc
		t.Run(string(sc), func(t *testing.T) {
			logger := mlog.NewLogger(nil)
			cfg := serve.Config{
				Scenario: sc, Queries: 96, Seed: 3,
				TargetQPS: 2000, Streams: 8, Interval: 10 * time.Millisecond,
				MaxBatch: 8,
				QueueCap: 96, Workers: 2,
				SLO: 250 * time.Millisecond, Log: logger,
			}
			rep, err := serve.Run(b, cfg)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Completed+rep.Rejected != rep.Queries {
				t.Fatalf("%d completed + %d rejected != %d issued: a query was lost", rep.Completed, rep.Rejected, rep.Queries)
			}
			if rep.Rejected != 0 {
				t.Errorf("%d rejections with QueueCap >= Queries", rep.Rejected)
			}
			for i, p := range rep.Predictions {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("query %d: non-finite prediction %v", i, p)
				}
			}
			if !(rep.P50 <= rep.P90 && rep.P90 <= rep.P99) {
				t.Errorf("quantiles out of order: p50=%v p90=%v p99=%v", rep.P50, rep.P90, rep.P99)
			}
			if rep.AchievedQPS <= 0 {
				t.Errorf("AchievedQPS = %v", rep.AchievedQPS)
			}
			if rep.SLO == nil {
				t.Fatal("no SLO verdict despite a configured bound")
			}
			if !rep.SLO.Valid {
				t.Errorf("SLO invalid on an unloaded run: %s", rep.SLO)
			}
			// MLLOG surface: scenario open, latency summary, verdict.
			for _, key := range []string{mlog.KeyScenario, mlog.KeyQueriesIssued,
				mlog.KeyLatencyP50, mlog.KeyLatencyP90, mlog.KeyLatencyP99,
				mlog.KeyAchievedQPS, mlog.KeySLOVerdict} {
				if mlog.Find(logger.Events, key) == nil {
					t.Errorf("MLLOG missing %q", key)
				}
			}
			if ev := mlog.Find(logger.Events, mlog.KeySLOVerdict); ev != nil && ev.Value != "valid" {
				t.Errorf("MLLOG slo_verdict = %v, want valid", ev.Value)
			}
			if sc == serve.Server {
				if mlog.Find(logger.Events, mlog.KeyTargetQPS) == nil {
					t.Error("server scenario MLLOG missing target_qps")
				}
				if len(rep.Schedule) != rep.Queries {
					t.Errorf("schedule has %d offsets, want %d", len(rep.Schedule), rep.Queries)
				}
			}
		})
	}
}

// TestServerDeterministicAcrossWorkers is the reproducibility acceptance
// criterion: at a fixed seed, repeated server runs — at different serving
// worker counts and kernel pool sizes — report bit-identical predictions
// and identical arrival schedules. Only latencies are wall-clock facts.
func TestServerDeterministicAcrossWorkers(t *testing.T) {
	defer leakcheck.Check(t)()
	b, pred := trainedBackend(t)
	base := serve.Config{
		Scenario: serve.Server, Queries: 160, Seed: 42, TargetQPS: 4000,
		MaxBatch: 8,
		QueueCap: 160, // >= Queries: rejection-free by construction
	}

	run := func(workers, kernelWorkers int) serve.Report {
		t.Helper()
		parallel.SetWorkers(kernelWorkers)
		defer parallel.SetWorkers(0)
		cfg := base
		cfg.Workers = workers
		rep, err := serve.Run(b, cfg)
		if err != nil {
			t.Fatalf("Run(workers=%d): %v", workers, err)
		}
		if rep.Rejected != 0 {
			t.Fatalf("run(workers=%d): %d rejections with QueueCap >= Queries", workers, rep.Rejected)
		}
		return rep
	}

	ref := run(1, 0)
	// Ground truth: the same samples served one at a time through a fresh
	// single-stream context must give bit-identical scores.
	ss := serve.NewSingleStream(b, nil)
	for i := range ref.Predictions {
		want, _ := ss.Step(i % b.Samples)
		if math.Float64bits(ref.Predictions[i]) != math.Float64bits(want) {
			t.Fatalf("query %d: server prediction %v != single-stream %v (batch composition leaked into the math)",
				i, ref.Predictions[i], want)
		}
	}
	for name, rep := range map[string]serve.Report{
		"repeat workers=1":            run(1, 0),
		"workers=2":                   run(2, 0),
		"workers=4":                   run(4, 0),
		"workers=4, serial kernels":   run(4, 1),
		"workers=2, 2-worker kernels": run(2, 2),
	} {
		if len(rep.Schedule) != len(ref.Schedule) {
			t.Fatalf("%s: schedule length %d vs %d", name, len(rep.Schedule), len(ref.Schedule))
		}
		for i := range ref.Schedule {
			if rep.Schedule[i] != ref.Schedule[i] {
				t.Fatalf("%s: arrival %d at %v, reference at %v — schedule must be a pure function of the seed",
					name, i, rep.Schedule[i], ref.Schedule[i])
			}
		}
		for i := range ref.Predictions {
			if math.Float64bits(rep.Predictions[i]) != math.Float64bits(ref.Predictions[i]) {
				t.Fatalf("%s: prediction %d = %x, reference %x — predictions must be bit-identical across worker counts",
					name, i, math.Float64bits(rep.Predictions[i]), math.Float64bits(ref.Predictions[i]))
			}
		}
	}
	_ = pred
}

// TestServerOverloadInvalidNotHang: an arrival rate far beyond the backend
// completes within bounded time with typed admission rejections and an
// invalid SLO verdict — the acceptance criterion's "invalid, not a hang".
func TestServerOverloadInvalidNotHang(t *testing.T) {
	defer leakcheck.Check(t)()
	b, _ := trainedBackend(t)
	type result struct {
		rep serve.Report
		err error
	}
	ch := make(chan result, 1)
	go func() {
		rep, err := serve.Run(b, serve.Config{
			Scenario: serve.Server, Queries: 2000, Seed: 9,
			TargetQPS: 1e6, // ~2ms of arrivals against >=40ms of inference
			MaxBatch:  8, QueueCap: 4, Workers: 1,
			SLO: 5 * time.Millisecond,
		})
		ch <- result{rep, err}
	}()
	var r result
	select {
	case r = <-ch:
	case <-time.After(60 * time.Second):
		t.Fatal("overloaded server run did not complete: overload must reject, not hang")
	}
	if r.err != nil {
		t.Fatalf("Run: %v", r.err)
	}
	rep := r.rep
	if rep.Completed+rep.Rejected != rep.Queries {
		t.Fatalf("%d completed + %d rejected != %d issued", rep.Completed, rep.Rejected, rep.Queries)
	}
	if rep.Rejected == 0 {
		t.Fatal("no admission rejections at 1e6 QPS against a 4-deep queue")
	}
	if rep.SLO == nil || rep.SLO.Valid {
		t.Fatalf("SLO verdict %+v, want invalid under overload", rep.SLO)
	}
	// Rejected queries carry NaN predictions; completed ones are finite.
	nan := 0
	for _, p := range rep.Predictions {
		if math.IsNaN(p) {
			nan++
		}
	}
	if nan != rep.Rejected {
		t.Errorf("%d NaN predictions, want %d (one per rejection)", nan, rep.Rejected)
	}
	t.Logf("overload: %s", rep.SLO)
}

// instantCtx is a trivially fast backend for FindMaxQPS tests.
type instantCtx struct{ delay time.Duration }

func (c *instantCtx) InferBatch(samples []int, out []float64) {
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	for i := range samples {
		out[i] = float64(samples[i])
	}
}

// TestFindMaxQPS: binary search over the server scenario finds a sustained
// rate for a fast backend and reports "none" for a hopeless SLO.
func TestFindMaxQPS(t *testing.T) {
	defer leakcheck.Check(t)()
	fast := serve.Backend{Name: "instant", Samples: 64,
		NewContext: func() serve.InferContext { return &instantCtx{} }}
	cfg := serve.Config{
		Queries: 100, Seed: 5, MaxBatch: 8,
		QueueCap: 100, Workers: 2, SLO: 20 * time.Millisecond,
	}
	best, reports, err := serve.FindMaxQPS(fast, cfg, 500, 50000, 4)
	if err != nil {
		t.Fatalf("FindMaxQPS: %v", err)
	}
	if best < 500 {
		t.Errorf("best QPS %v, want >= floor 500 for an instant backend", best)
	}
	if len(reports) != 4 {
		t.Errorf("%d probe reports, want 4", len(reports))
	}

	// A backend that takes 5ms per batch can never hold a 100µs p99.
	slow := serve.Backend{Name: "slow", Samples: 64,
		NewContext: func() serve.InferContext { return &instantCtx{delay: 5 * time.Millisecond} }}
	scfg := cfg
	scfg.Queries = 30
	scfg.SLO = 100 * time.Microsecond
	best, reports, err = serve.FindMaxQPS(slow, scfg, 1000, 50000, 4)
	if err != nil {
		t.Fatalf("FindMaxQPS(slow): %v", err)
	}
	if best != 0 {
		t.Errorf("best QPS %v for an impossible SLO, want 0", best)
	}
	if len(reports) != 1 {
		t.Errorf("%d probe reports after an invalid floor, want 1 (no pointless bisection)", len(reports))
	}

	if _, _, err := serve.FindMaxQPS(fast, serve.Config{Queries: 10}, 10, 100, 2); err == nil {
		t.Error("FindMaxQPS accepted a zero SLO")
	}
	if _, _, err := serve.FindMaxQPS(fast, cfg, 100, 50, 2); err == nil {
		t.Error("FindMaxQPS accepted hi < lo")
	}
}

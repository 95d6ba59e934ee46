package serve

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/mlog"
)

// Report is the outcome of one serving run.
type Report struct {
	// Backend names the served model.
	Backend string
	// Scenario is the traffic shape the run used.
	Scenario Scenario
	// Queries / Completed / Rejected count issued queries and their fates;
	// every query is either completed or rejected (admission control), so
	// Completed + Rejected == Queries — the run can never hang on a lost
	// query.
	Queries, Completed, Rejected int
	// Duration is issue-to-drain wall time on the run clock.
	Duration time.Duration
	// AchievedQPS is Completed / Duration.
	AchievedQPS float64
	// P50 / P90 / P99 are R-7 quantiles of the completed-query latencies.
	P50, P90, P99 time.Duration
	// Predictions holds one model output per query id (NaN for rejected
	// queries). Pure function of (parameters, sample): bit-identical
	// across runs and worker counts.
	Predictions []float64
	// Latencies holds the completed queries' latencies in query-id order
	// (rejected queries are skipped).
	Latencies []time.Duration
	// Schedule is the server scenario's Poisson arrival schedule (nil for
	// other scenarios) — a pure function of (Seed, Queries, TargetQPS).
	Schedule []time.Duration
	// SLO is the latency-bound verdict (nil when the run had no bound).
	SLO *SLOResult
}

// String renders the report for CLI output.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s: %d queries, %d completed, %d rejected in %s (%.1f QPS); p50=%s p90=%s p99=%s",
		r.Backend, r.Scenario, r.Queries, r.Completed, r.Rejected,
		r.Duration.Round(time.Microsecond), r.AchievedQPS,
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	if r.SLO != nil {
		fmt.Fprintf(&b, "; %s", r.SLO)
	}
	return b.String()
}

// Run executes one serving run of backend b under cfg's scenario and
// returns the measured report. The only error paths are configuration
// errors; an overloaded run is not an error — it completes with typed
// per-query rejections and an invalid SLO verdict.
func Run(b Backend, cfg Config) (Report, error) {
	cfg, err := cfg.withDefaults(b)
	if err != nil {
		return Report{}, err
	}
	switch cfg.Scenario {
	case SingleStream:
		return runSingleStream(b, cfg), nil
	case MultiStream:
		return runMultiStream(b, cfg), nil
	case Offline:
		return runOffline(b, cfg), nil
	default:
		return runServer(b, cfg), nil
	}
}

// logStart emits the scenario-open MLLOG events.
func logStart(cfg Config, b Backend) {
	if cfg.Log == nil {
		return
	}
	ms := cfg.Clock.Now().Milliseconds()
	cfg.Log.Simple(ms, mlog.KeyScenario, string(cfg.Scenario))
	cfg.Log.Simple(ms, mlog.KeyBenchmark, b.Name)
	if cfg.Scenario == Server {
		cfg.Log.Simple(ms, mlog.KeyTargetQPS, cfg.TargetQPS)
	}
}

// finishReport computes the latency summary, SLO verdict, and MLLOG tail
// shared by every scenario driver.
func finishReport(cfg Config, rep *Report) {
	rec := NewRecorder(rep.Queries)
	for _, d := range rep.Latencies {
		rec.Add(d)
	}
	rep.P50, rep.P90, rep.P99 = rec.Percentiles()
	if rep.Duration > 0 {
		rep.AchievedQPS = float64(rep.Completed) / rep.Duration.Seconds()
	}
	if cfg.SLO > 0 {
		rep.SLO = checkSLO(cfg, rec, rep)
	}
	if cfg.Log != nil {
		ms := cfg.Clock.Now().Milliseconds()
		cfg.Log.Simple(ms, mlog.KeyQueriesIssued, rep.Queries)
		cfg.Log.Simple(ms, mlog.KeyQueriesRejected, rep.Rejected)
		cfg.Log.Simple(ms, mlog.KeyAchievedQPS, rep.AchievedQPS)
		cfg.Log.Simple(ms, mlog.KeyLatencyP50, durMS(rep.P50))
		cfg.Log.Simple(ms, mlog.KeyLatencyP90, durMS(rep.P90))
		cfg.Log.Simple(ms, mlog.KeyLatencyP99, durMS(rep.P99))
		verdict := "untested"
		if rep.SLO != nil {
			verdict = rep.SLO.Verdict()
		}
		cfg.Log.Simple(ms, mlog.KeySLOVerdict, verdict)
	}
}

// durMS renders a duration as fractional milliseconds for MLLOG values.
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// SingleStreamRunner is the single-stream scenario's reusable stepper:
// one context, one query at a time, back to back. Step is the warm
// serving hot path — it allocates nothing, the contract
// BenchmarkServeSingleStream* gates (the serving counterpart of the
// 0 allocs/op training step).
type SingleStreamRunner struct {
	ctx    InferContext
	clk    clock.Clock
	sample [1]int
	out    [1]float64
}

// NewSingleStream builds a single-stream stepper over one fresh context.
func NewSingleStream(b Backend, clk clock.Clock) *SingleStreamRunner {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &SingleStreamRunner{ctx: b.NewContext(), clk: clk}
}

// Step serves one query synchronously, returning the prediction and the
// measured latency.
func (s *SingleStreamRunner) Step(sample int) (float64, time.Duration) {
	start := s.clk.Now()
	s.sample[0] = sample
	s.ctx.InferBatch(s.sample[:], s.out[:])
	return s.out[0], s.clk.Now() - start
}

func runSingleStream(b Backend, cfg Config) Report {
	logStart(cfg, b)
	rep := Report{Backend: b.Name, Scenario: SingleStream, Queries: cfg.Queries,
		Predictions: make([]float64, cfg.Queries),
		Latencies:   make([]time.Duration, 0, cfg.Queries)}
	ss := NewSingleStream(b, cfg.Clock)
	start := cfg.Clock.Now()
	for i := 0; i < cfg.Queries; i++ {
		pred, lat := ss.Step(i % b.Samples)
		rep.Predictions[i] = pred
		rep.Latencies = append(rep.Latencies, lat)
	}
	rep.Duration = cfg.Clock.Now() - start
	rep.Completed = cfg.Queries
	finishReport(cfg, &rep)
	return rep
}

func runOffline(b Backend, cfg Config) Report {
	logStart(cfg, b)
	n := cfg.Queries
	e := newEngine(b, cfg, n)
	start := cfg.Clock.Now()
	// Offline: the whole query set is available at once. Admission blocks
	// (backpressure) instead of rejecting — nothing has a deadline, the
	// metric is throughput.
	for i := 0; i < n; i++ {
		e.put(query{id: i, sample: i % b.Samples, issued: start})
	}
	e.close()
	rep := collect(e, Report{Backend: b.Name, Scenario: Offline, Queries: n}, nil)
	rep.Duration = cfg.Clock.Now() - start
	finishReport(cfg, &rep)
	return rep
}

func runMultiStream(b Backend, cfg Config) Report {
	logStart(cfg, b)
	rounds := (cfg.Queries + cfg.Streams - 1) / cfg.Streams
	n := rounds * cfg.Streams
	e := newEngine(b, cfg, n)
	rejected := make([]bool, n)
	start := cfg.Clock.Now()
	id := 0
	for r := 0; r < rounds; r++ {
		target := start + time.Duration(r)*cfg.Interval
		sleepUntil(cfg.Clock, target)
		// The whole burst carries the round's scheduled start as its issue
		// time: a backend that falls behind pays for it in latency.
		for s := 0; s < cfg.Streams; s++ {
			q := query{id: id, sample: id % b.Samples, issued: target}
			if err := e.offer(q); err != nil {
				rejected[id] = true
			}
			id++
		}
	}
	e.close()
	rep := collect(e, Report{Backend: b.Name, Scenario: MultiStream, Queries: n}, rejected)
	rep.Duration = cfg.Clock.Now() - start
	finishReport(cfg, &rep)
	return rep
}

func runServer(b Backend, cfg Config) Report {
	logStart(cfg, b)
	n := cfg.Queries
	sched := PoissonSchedule(cfg.Seed, n, cfg.TargetQPS)
	e := newEngine(b, cfg, n)
	rejected := make([]bool, n)
	start := cfg.Clock.Now()
	for i := 0; i < n; i++ {
		target := start + sched[i]
		sleepUntil(cfg.Clock, target)
		// Latency is measured from the scheduled Poisson arrival, LoadGen
		// style: if the issuing loop itself falls behind, the lag counts.
		q := query{id: i, sample: i % b.Samples, issued: target}
		if err := e.offer(q); err != nil {
			rejected[i] = true
		}
	}
	e.close()
	rep := collect(e, Report{Backend: b.Name, Scenario: Server, Queries: n}, rejected)
	rep.Schedule = sched
	rep.Duration = cfg.Clock.Now() - start
	finishReport(cfg, &rep)
	return rep
}

// sleepUntil blocks until the run clock reads at least target. The wait
// itself is sleepFor's, on the kernel's timer; the clock stays the single
// source of "now". sleepFor(d) advances a wall clock by at least d, so a
// clock that advanced less across the sleep does not track wall time (a
// frozen simulated clock, or one that ticks per read) and the wait ends
// there: pacing degrades to full speed, it never hangs or sleeps the gap
// once per tick.
func sleepUntil(clk clock.Clock, target time.Duration) {
	for {
		now := clk.Now()
		d := target - now
		if d <= 0 {
			return
		}
		sleepFor(d)
		if clk.Now()-now < d {
			return
		}
	}
}

// collect folds a drained engine's slot arrays into the report.
func collect(e *engine, rep Report, rejected []bool) Report {
	rep.Predictions = make([]float64, len(e.pred))
	rep.Latencies = make([]time.Duration, 0, len(e.pred))
	for id := range e.pred {
		switch {
		case rejected != nil && rejected[id]:
			rep.Predictions[id] = math.NaN()
			rep.Rejected++
		case e.done[id]:
			rep.Predictions[id] = e.pred[id]
			rep.Latencies = append(rep.Latencies, e.lat[id])
			rep.Completed++
		default:
			// Unreachable: close drains every admitted query. Account for
			// it as rejected rather than hiding it.
			rep.Predictions[id] = math.NaN()
			rep.Rejected++
		}
	}
	return rep
}

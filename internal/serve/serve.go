// Package serve is the inference half of the train-then-serve pipeline: a
// LoadGen-style harness that drives forward-only inference over a trained
// model under realistic traffic shapes and gates the result on tail
// latency, the way MLPerf Inference (the paper's companion benchmark)
// measures serving systems.
//
// The harness issues queries as sample indices into a backend's preloaded
// sample pool (exactly LoadGen's QuerySample contract) under four traffic
// scenarios:
//
//   - single-stream: one query at a time, back to back — pure latency;
//   - multi-stream: a fixed-size burst of queries every interval, each
//     burst due by the next — latency under synchronized load;
//   - offline: every query available at once — pure throughput;
//   - server: queries arrive by a Poisson process at a target QPS —
//     tail latency under random load, the "millions of users" shape.
//
// Between arrival and model lies an admission-controlled bounded queue,
// from which each worker forms its own batches. In the latency scenarios
// (server, multi-stream) a worker takes a query as soon as its context is
// free, with whatever else is queued up to the max batch: batches grow
// only while every context is busy, and no query waits on a timer.
// Offline has no deadlines and fills every batch to the max. When
// arrivals outrun the backend the queue rejects with a typed
// *OverloadError — the serving analogue of transport.PeerError's "typed
// failure, never a hang" contract — and the run's SLO verdict goes
// invalid instead of latencies growing without bound.
//
// Server and multi-stream latency run from a query's scheduled arrival,
// so they include the load generator's own issue lag: the sleep that
// paces arrivals overshoots its deadline by however long the OS takes to
// wake the issuing goroutine. On Linux that sleep is nanosleep(2), which
// overshoots by tens of microseconds; the runtime's timer, which the
// other platforms keep, rounds a sub-millisecond wait on an idle process
// up to a millisecond. On an idle machine that lag, not batching or
// inference, is the floor of a server run's latency.
//
// Determinism: the arrival schedule is a pure function of (seed, n, QPS)
// — PoissonSchedule draws from the repo's explicit tensor.RNG, never a
// global source — and predictions are a pure function of (parameters,
// sample) because every output row depends only on its own input row and
// the GEMM engine fixes per-element accumulation order. A served run at a
// fixed seed therefore reports bit-identical predictions and an identical
// arrival schedule at any worker count; only the measured latencies are
// wall-clock facts. All timing flows through the injectable
// internal/clock (detlint forbids time.Now here), so latency bookkeeping
// is testable against simulated clocks.
package serve

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/mlog"
)

// Scenario is a LoadGen-style traffic shape.
type Scenario string

// The four traffic scenarios.
const (
	SingleStream Scenario = "single_stream"
	MultiStream  Scenario = "multi_stream"
	Offline      Scenario = "offline"
	Server       Scenario = "server"
)

// ParseScenario maps a CLI spelling to a Scenario.
func ParseScenario(s string) (Scenario, error) {
	switch s {
	case "single", "single_stream", "single-stream", "singlestream":
		return SingleStream, nil
	case "multi", "multi_stream", "multi-stream", "multistream":
		return MultiStream, nil
	case "offline":
		return Offline, nil
	case "server":
		return Server, nil
	}
	return "", fmt.Errorf("serve: unknown scenario %q (want single-stream, multi-stream, offline, or server)", s)
}

// Scenarios lists the four scenarios in LoadGen order.
func Scenarios() []Scenario {
	return []Scenario{SingleStream, MultiStream, Offline, Server}
}

// Backend is a loaded model ready for forward-only serving. The harness
// issues sample indices in [0, Samples); NewContext hands out per-worker
// inference contexts that share the (read-only) parameters but own their
// tapes and staging buffers, so contexts run concurrently.
type Backend struct {
	// Name tags reports and MLLOG lines.
	Name string
	// Samples is the preloaded sample-pool size.
	Samples int
	// NewContext returns a fresh per-worker inference context.
	NewContext func() InferContext
}

// InferContext runs batched forward-only inference. A context is owned by
// one worker goroutine at a time; distinct contexts of one Backend may run
// concurrently.
type InferContext interface {
	// InferBatch writes one prediction per sample index into
	// out[:len(samples)].
	InferBatch(samples []int, out []float64)
}

// Config parameterizes one serving run.
type Config struct {
	// Scenario selects the traffic shape.
	Scenario Scenario
	// Queries is the total number of queries to issue (multi-stream rounds
	// up to whole bursts).
	Queries int
	// Seed drives the server scenario's Poisson arrival schedule.
	Seed uint64
	// TargetQPS is the server scenario's Poisson arrival rate.
	TargetQPS float64
	// Streams is the multi-stream burst size.
	Streams int
	// Interval is the multi-stream burst period; each burst is due when
	// the next begins, so Interval doubles as the default multi-stream SLO.
	Interval time.Duration
	// MaxBatch bounds the batch a worker forms (default 8; single-stream
	// and its latency contract always run batch 1). Server and
	// multi-stream batches take what is queued when a context frees up;
	// offline batches fill to MaxBatch.
	MaxBatch int
	// MaxWait is read by nothing: no worker holds a batch open on a
	// timer. It stays because the frozen bench/ driver sets it.
	//
	// Deprecated: leave it unset.
	MaxWait time.Duration
	// QueueCap bounds the admission queue; a full queue rejects with
	// *OverloadError (default 4×MaxBatch).
	QueueCap int
	// Workers is the number of concurrent inference contexts (default 1).
	Workers int
	// SLO is the latency bound the run is gated on; 0 means no bound
	// (offline) or the scenario default (multi-stream: Interval).
	SLO time.Duration
	// Percentile is the gated latency quantile (default 0.99; the
	// single-stream convention is 0.90).
	Percentile float64
	// Clock supplies all timestamps; nil selects a fresh wall clock.
	Clock clock.Clock
	// Log, when non-nil, receives MLLOG scenario/latency/SLO events.
	Log *mlog.Logger
}

// withDefaults validates cfg against the backend and fills defaults.
func (cfg Config) withDefaults(b Backend) (Config, error) {
	if b.Samples <= 0 || b.NewContext == nil {
		return cfg, fmt.Errorf("serve: backend %q has no samples or no context factory", b.Name)
	}
	switch cfg.Scenario {
	case SingleStream, MultiStream, Offline, Server:
	default:
		return cfg, fmt.Errorf("serve: unknown scenario %q", cfg.Scenario)
	}
	if cfg.Queries <= 0 {
		return cfg, fmt.Errorf("serve: %s needs Queries > 0, have %d", cfg.Scenario, cfg.Queries)
	}
	if cfg.Scenario == Server && !(cfg.TargetQPS > 0) {
		return cfg, fmt.Errorf("serve: server scenario needs TargetQPS > 0, have %v", cfg.TargetQPS)
	}
	if cfg.Scenario == MultiStream {
		if cfg.Streams <= 0 {
			return cfg, fmt.Errorf("serve: multi-stream scenario needs Streams > 0, have %d", cfg.Streams)
		}
		if cfg.Interval <= 0 {
			return cfg, fmt.Errorf("serve: multi-stream scenario needs Interval > 0, have %v", cfg.Interval)
		}
		if cfg.SLO == 0 {
			cfg.SLO = cfg.Interval
		}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4 * cfg.MaxBatch
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Percentile == 0 {
		if cfg.Scenario == SingleStream {
			cfg.Percentile = 0.90
		} else {
			cfg.Percentile = 0.99
		}
	}
	if cfg.Percentile <= 0 || cfg.Percentile >= 1 {
		return cfg, fmt.Errorf("serve: Percentile must be in (0,1), have %v", cfg.Percentile)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.NewReal()
	}
	return cfg, nil
}

// OverloadError is the typed admission-control rejection: the bounded
// queue was full when the query arrived. It is a per-query outcome, not a
// run failure — the run completes and reports an invalid SLO verdict.
type OverloadError struct {
	// QueryID is the rejected query's issue index.
	QueryID int
	// Sample is the rejected query's sample index.
	Sample int
	// QueueCap is the admission bound that was hit.
	QueueCap int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overload: query %d (sample %d) rejected, admission queue full at %d", e.QueryID, e.Sample, e.QueueCap)
}

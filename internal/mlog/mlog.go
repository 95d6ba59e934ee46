// Package mlog implements MLPerf structured result logging: the
// ":::MLLOG"-prefixed JSON lines that training sessions emit and that the
// submission review process consumes (§4.1: "A training session log file
// contains a variety of structured information including timestamps for
// important stages of the workload, quality metric evaluated at prescribed
// intervals, hyper-parameter choices"). These logs are the foundation for
// result analysis and compliance checking.
package mlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Prefix marks structured log lines, as in the MLPerf logging library.
const Prefix = ":::MLLOG"

// Standard event keys.
const (
	KeyRunStart      = "run_start"
	KeyRunStop       = "run_stop"
	KeyInitStart     = "init_start"
	KeyInitStop      = "init_stop"
	KeyEpochStart    = "epoch_start"
	KeyEpochStop     = "epoch_stop"
	KeyEvalStart     = "eval_start"
	KeyEvalStop      = "eval_stop"
	KeyEvalAccuracy  = "eval_accuracy"
	KeyHyperparam    = "hyperparameter"
	KeySeed          = "seed"
	KeyQualityTarget = "quality_target"
	KeyBenchmark     = "benchmark"
	KeySubmission    = "submission_org"
	KeyStatus        = "status"
	KeyCache         = "cache_clear"
	// KeyNumerics records the run's compute regime ("f64", "f32",
	// "bf16+mp"); KeyVerify records how the run set is verified
	// ("bitwise" for the float64 reference, "stat" for the §3.3
	// quantile gate over reduced-precision regimes).
	KeyNumerics = "numerics_dtype"
	KeyVerify   = "verification_regime"
	// Serving-harness keys (internal/serve): the traffic scenario, the
	// server scenario's target and achieved rates, the R-7 tail-latency
	// summary in fractional milliseconds, admission-control accounting,
	// the SLO verdict ("valid"/"invalid"/"untested"), and the parameter
	// snapshot the served model was restored from.
	KeyScenario        = "scenario"
	KeyTargetQPS       = "target_qps"
	KeyAchievedQPS     = "achieved_qps"
	KeyLatencyP50      = "latency_p50_ms"
	KeyLatencyP90      = "latency_p90_ms"
	KeyLatencyP99      = "latency_p99_ms"
	KeyQueriesIssued   = "queries_issued"
	KeyQueriesRejected = "queries_rejected"
	KeySLOVerdict      = "slo_verdict"
	KeySnapshotDigest  = "snapshot_digest"
	// Fault-tolerance keys (internal/ckpt, internal/grid): the step a
	// checkpoint sealed and its content digest, the step a resumed run
	// restarted from, the supervisor's cumulative worker-restart count,
	// and the wall-clock cost of one detect→respawn→resume recovery in
	// fractional milliseconds.
	KeyCheckpointStep   = "checkpoint_step"
	KeyCheckpointDigest = "checkpoint_digest"
	KeyResumeFromStep   = "resume_from_step"
	KeyWorkerRestarts   = "worker_restarts"
	KeyRecoveryWallMS   = "recovery_wall_ms"
)

// Event is one structured log record.
type Event struct {
	// TimeMS is the event timestamp in milliseconds on the run clock.
	TimeMS int64 `json:"time_ms"`
	// Key identifies the event type.
	Key string `json:"key"`
	// Value is the event payload (metric value, hyperparameter value...).
	Value any `json:"value,omitempty"`
	// Epoch tags events belonging to an epoch (-1 when not applicable).
	Epoch int `json:"epoch_num"`
	// Meta carries free-form context (hyperparameter name, etc.).
	Meta map[string]any `json:"metadata,omitempty"`
}

// Logger accumulates events and optionally streams them to a writer.
type Logger struct {
	Events []Event
	w      io.Writer
}

// NewLogger builds a logger; w may be nil to only accumulate in memory.
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: w}
}

// Log appends an event and emits its MLLOG line if a writer is attached.
func (l *Logger) Log(e Event) {
	if e.Epoch == 0 && e.Key != KeyEpochStart && e.Key != KeyEpochStop {
		// Epoch 0 is valid for epoch events; others default to -1 when
		// unset by the caller. Zero-value detection uses Meta marker.
	}
	l.Events = append(l.Events, e)
	if l.w != nil {
		b, err := json.Marshal(e)
		if err != nil {
			fmt.Fprintf(l.w, "%s {\"error\":%q}\n", Prefix, err.Error())
			return
		}
		fmt.Fprintf(l.w, "%s %s\n", Prefix, b)
	}
}

// Simple logs a key/value event at the given run-clock time.
func (l *Logger) Simple(timeMS int64, key string, value any) {
	l.Log(Event{TimeMS: timeMS, Key: key, Value: value, Epoch: -1})
}

// EvalAccuracy logs a quality evaluation at an epoch boundary.
func (l *Logger) EvalAccuracy(timeMS int64, epoch int, value float64) {
	l.Log(Event{TimeMS: timeMS, Key: KeyEvalAccuracy, Value: value, Epoch: epoch})
}

// Render writes all events as MLLOG lines.
func (l *Logger) Render(w io.Writer) error {
	for _, e := range l.Events {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", Prefix, b); err != nil {
			return err
		}
	}
	return nil
}

// String renders the log to a string.
func (l *Logger) String() string {
	var sb strings.Builder
	_ = l.Render(&sb)
	return sb.String()
}

// Parse reads MLLOG lines from r, ignoring non-MLLOG lines (training logs
// interleave free-form output with structured lines).
func Parse(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, Prefix) {
			continue
		}
		payload := strings.TrimSpace(strings.TrimPrefix(line, Prefix))
		var e Event
		if err := json.Unmarshal([]byte(payload), &e); err != nil {
			return nil, fmt.Errorf("mlog: bad MLLOG line %q: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Find returns the first event with the given key, or nil.
func Find(events []Event, key string) *Event {
	for i := range events {
		if events[i].Key == key {
			return &events[i]
		}
	}
	return nil
}

// FindAll returns every event with the given key.
func FindAll(events []Event, key string) []Event {
	var out []Event
	for _, e := range events {
		if e.Key == key {
			out = append(out, e)
		}
	}
	return out
}

// FinalAccuracy returns the last logged eval_accuracy value, and whether
// one exists.
func FinalAccuracy(events []Event) (float64, bool) {
	evs := FindAll(events, KeyEvalAccuracy)
	if len(evs) == 0 {
		return 0, false
	}
	v, ok := evs[len(evs)-1].Value.(float64)
	return v, ok
}

// RunDurationMS returns run_stop - run_start, the official time-to-train,
// and whether both markers exist.
func RunDurationMS(events []Event) (int64, bool) {
	start := Find(events, KeyRunStart)
	stop := Find(events, KeyRunStop)
	if start == nil || stop == nil {
		return 0, false
	}
	return stop.TimeMS - start.TimeMS, true
}

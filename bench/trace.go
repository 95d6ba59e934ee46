package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/clock"
)

// span is one timed call from bench/ into a layer. Parent is the index of
// the enclosing span in the same buffer (-1 at the root); ID is the step,
// query or cycle number the call belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int32         `json:"parent"`
	ID     int32         `json:"id"`
	// Async marks a span that overlaps its siblings (a served query among
	// other queries in flight). It has no self time of its own and takes
	// none from its parent.
	Async bool `json:"async,omitempty"`
}

// tracer records spans from one goroutine into a buffer allocated up
// front, so recording a span never allocates inside a timed region. A nil
// tracer records nothing: untraced runs pass nil and pay one branch.
type tracer struct {
	clk     clock.Clock
	spans   []span
	stack   []int32
	dropped int
}

// maxSpans bounds the buffer (about 5 MB); spans past it are counted in
// dropped and left out of the file.
const maxSpans = 1 << 17

func newTracer(clk clock.Clock) *tracer {
	return &tracer{clk: clk, spans: make([]span, 0, maxSpans), stack: make([]int32, 0, 16)}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, id int) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	h := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: int32(id), Start: t.clk.Now()})
	t.stack = append(t.stack, h)
	return h
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(h int32) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].End = t.clk.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one parent never overlap: one goroutine
// records them in sequence.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.Async {
			continue
		}
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerShare is one row of the "where time goes" ranking.
type layerShare struct {
	Span  string  `json:"span"`
	Share float64 `json:"share"`
}

// ranking sums self time by span name and returns the top rows as shares
// of all recorded time.
func ranking(spans []span, top int) []layerShare {
	self := selfTimes(spans)
	byName := map[string]time.Duration{}
	var total time.Duration
	for i, s := range spans {
		byName[s.Name] += self[i]
		total += self[i]
	}
	rows := make([]layerShare, 0, len(byName))
	for name, d := range byName {
		rows = append(rows, layerShare{Span: name, Share: float64(d) / float64(total)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Span < rows[j].Span
	})
	if len(rows) > top {
		rows = rows[:top]
	}
	return rows
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// write stores the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: t.dropped, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

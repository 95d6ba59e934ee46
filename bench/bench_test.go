package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/serve"
)

func TestQuantileAgreesWithRecorder(t *testing.T) {
	durs := []time.Duration{9, 1, 7, 3, 5, 11, 2, 8, 13, 4}
	rec := serve.NewRecorder(len(durs))
	for _, d := range durs {
		rec.Add(d * time.Microsecond)
	}
	scaled := make([]time.Duration, len(durs))
	for i, d := range durs {
		scaled[i] = d * time.Microsecond
	}
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99, 1} {
		got := quantile(scaled, q, time.Nanosecond)
		if want := float64(rec.Quantile(q)); got != want {
			t.Errorf("q=%v: quantile %v, serve.Recorder %v", q, got, want)
		}
	}
	if got := quantile(scaled, 0.5, time.Microsecond); got != 6 {
		t.Errorf("median in microseconds = %v, want 6", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// step [0,100] with children [10,40] and [50,90]; the second child has
	// a grandchild [60,70].
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "forward", Start: 10, End: 40, Parent: 0},
		{Name: "backward", Start: 50, End: 90, Parent: 0},
		{Name: "gemm", Start: 60, End: 70, Parent: 2},
	}
	want := []time.Duration{30, 30, 30, 10}
	var total time.Duration
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
		total += got
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
	rows := ranking(spans, 2)
	if len(rows) != 2 || rows[0].Share != 0.3 {
		t.Errorf("ranking = %+v, want two rows led by a 0.3 share", rows)
	}
}

func TestTracerNesting(t *testing.T) {
	var sim clock.Sim
	tr := newTracer(&sim)
	outer := tr.begin("outer", 1)
	sim.Advance(5)
	inner := tr.begin("inner", 2)
	sim.Advance(3)
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if d := tr.spans[1].End - tr.spans[1].Start; d != 3 {
		t.Errorf("inner lasted %d, want 3", d)
	}
	var none *tracer
	none.end(none.begin("ignored", 0)) // a nil tracer records nothing and does not panic
}

// TestUndisturbed checks the witness's selection: samples within quietTol
// of the reference, unjudged samples always, and the least disturbed making
// up quietFloor when too few qualify.
func TestUndisturbed(t *testing.T) {
	const ref = 100 * time.Microsecond
	quietScore, loud := ref+ref/20, 2*ref
	var mixed []sample
	for i := 0; i < 6; i++ {
		mixed = append(mixed, sample{1, quietScore}, sample{9, loud})
	}
	if v, n := quietQuantile(mixed, ref, 0.5); v != 1 || n != 6 {
		t.Errorf("six quiet among twelve: median %v over %d, want 1 over 6", v, n)
	}
	// Two quiet samples are fewer than quietFloor: the three least
	// disturbed of the rest join them.
	few := []sample{{1, quietScore}, {1, quietScore}, {5, loud + 1}, {6, loud + 2}, {7, loud + 3}, {8, loud + 4}, {9, loud + 5}}
	if v, n := quietQuantile(few, ref, 0.5); v != 5 || n != quietFloor {
		t.Errorf("two quiet among seven: median %v over %d, want 5 over %d", v, n, quietFloor)
	}
	unjudged := []sample{{v: 3}, {v: 1}, {v: 2}}
	if v, n := quietQuantile(unjudged, ref, 0.5); v != 2 || n != 3 {
		t.Errorf("unjudged samples: median %v over %d, want 2 over 3", v, n)
	}
	// The traced pass has no witness: every reading and the reference are 0.
	var none *witness
	if none.read(2) != 0 || none.reference() != 0 {
		t.Error("a nil witness must read 0")
	}
	none.close()
}

// TestWitnessReads checks that a reading is positive on one core and on
// two, and that the reference is one of the faster readings.
func TestWitnessReads(t *testing.T) {
	w := newWitness(clock.NewReal())
	defer w.close()
	var most time.Duration
	for i := 0; i < 20; i++ {
		most = slower(most, slower(w.read(1), w.read(2)))
	}
	if len(w.readings) != 60 {
		t.Errorf("%d readings, want 20 on one core and 40 on two", len(w.readings))
	}
	if ref := w.reference(); ref <= 0 || ref > most {
		t.Errorf("reference %v outside (0, %v]", ref, most)
	}
}

func TestBounds(t *testing.T) {
	lower := metric{better: "lower", bound: 0.10}
	higher := metric{better: "higher", bound: 0.10}
	for _, c := range []struct {
		m          metric
		base, cand float64
		worse      float64
		ok         bool
	}{
		{lower, 100, 109, 0.09, true},
		{lower, 100, 112, 0.12, false},
		{lower, 100, 50, -0.5, false}, // the other way round, 100 is twice 50
		{higher, 100, 91, 0.09, true},
		{higher, 100, 88, 0.12, false},
		{lower, 0, 0, math.Inf(1), false}, // a metric that reads 0 was not measured
	} {
		if got := worseBy(c.m, c.base, c.cand); got != c.worse && (got < c.worse-1e-9 || got > c.worse+1e-9) {
			t.Errorf("worseBy(%s, %v, %v) = %v, want %v", c.m.better, c.base, c.cand, got, c.worse)
		}
		if got := withinBound(c.m, c.base, c.cand); got != c.ok {
			t.Errorf("withinBound(%s, %v, %v) = %v, want %v", c.m.better, c.base, c.cand, got, c.ok)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

// TestRegistryMatchesBenchmarkJSON keeps the harness and BENCHMARK.json in
// step: the same workloads, metrics, units, directions and bounds, in the
// same order, all within the contract's character sets.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", doc.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's character set", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName("workload", w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness {%s %s}", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the harness %d", len(got), kind, len(want))
		}
		for i, m := range want {
			checkName(kind, m.name)
			if !unitRE.MatchString(m.unit) {
				t.Errorf("%s: unit %q is outside the contract's character set", m.name, m.unit)
			}
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has {%s %s %s}, the harness {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound):
				t.Errorf("%s: BENCHMARK.json bound %v, the harness %v", m.name, g.Bound, m.bound)
			case bounded && (m.bound <= 0 || m.bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
}

// TestDriverArguments checks that the command line the driver uses parses:
// --workload, --seed, --seconds and --trace, each with its value.
func TestDriverArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "no_such_workload", "--seed", "7", "--seconds", "8", "--trace", "0"}, &stdout, &stderr)
	if code != 2 || !bytes.Contains(stderr.Bytes(), []byte(`unknown workload "no_such_workload"`)) {
		t.Errorf("exit code %d, stderr %q: want 2 and the unknown workload named", code, stderr.String())
	}
}

// TestSmoke runs every workload, untraced and traced, at a budget far too
// small to measure anything, to prove that each one sets up, produces every
// metric under a registered name, passes its own correctness gates, and
// writes its trace.
func TestSmoke(t *testing.T) {
	clk := clock.NewReal()
	dir := t.TempDir()
	opt := options{seed: 3, seconds: 0.05, outDir: dir, smoke: true}
	for i := range workloads {
		w := &workloads[i]
		began := clk.Now()
		res := runPasses(w, opt, []bool{false, true})
		t.Logf("%s: %v", w.name, clk.Now()-began)
		if !res.Correct {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		want := len(endToEnd)
		for _, m := range perLayer {
			if m.on&w.kind != 0 {
				want++
			}
		}
		if len(res.Metrics) != want {
			t.Errorf("%s: %d metrics, want the %d it declares", w.name, len(res.Metrics), want)
		}
		if n := len(res.line().Metrics); n != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: result line has %d metrics, the driver wants all %d", w.name, n, len(endToEnd)+len(perLayer))
		}
		for _, m := range endToEnd {
			if v := res.Metrics[m.name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, m.name, v)
			}
		}
		if len(res.Ranking) == 0 {
			t.Errorf("%s: no time ranking from the traced pass", w.name)
		}
		data, err := os.ReadFile(dir + "/trace-" + w.name + ".json")
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil || len(tf.Spans) == 0 || tf.Workload != w.name {
			t.Errorf("%s: trace file does not parse back: %v (%d spans)", w.name, err, len(tf.Spans))
		}
	}
	// About 7 s on the two-core sandbox, eight times that under the race
	// detector; logged, not asserted, because the host's speed is not the
	// test's to promise.
	t.Logf("all workloads: %v", clk.Now())
}

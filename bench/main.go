// Command bench is the repo's benchmark: seven workloads, each printing
// every end-to-end metric (untraced) or the per-layer metrics of the layers
// it reaches (traced) by name with its unit, after checking that the
// program's outputs are correct. BENCHMARK.json at the repo root names the same metrics,
// workloads and bounds; bench/README.md explains them.
//
// Every layer is measured from outside, by timing calls into its public
// functions on internal/clock. Spans inside the program are a later issue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/clock"
)

// defaultSeconds is run_seconds in BENCHMARK.json, the length the driver
// passes as --seconds on every commit.
const defaultSeconds = 14

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Uint64("seed", 1, "workload seed: model init, loader shuffle, Poisson schedule")
		seconds   = fs.Float64("seconds", defaultSeconds, "timed region of one workload, in seconds")
		trace     = fs.String("trace", "0", "0: end-to-end metrics, spans off; 1: per-layer metrics, spans written to -out; both")
		asJSON    = fs.Bool("json", false, "with -workload all: print one JSON document in place of the table")
		selfcheck = fs.Bool("selfcheck", false, "run the untraced set twice and fail if a metric differs by more than its bound")
		outDir    = fs.String("out", "bench/out", "directory for trace files and checkpoint scratch")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	var passes []bool // traced?
	switch *trace {
	case "0":
		passes = []bool{false}
	case "1":
		passes = []bool{true}
	case "both":
		passes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	// Two cores: at most two busy goroutines, so DP-2 and PP-2.
	runtime.GOMAXPROCS(2)

	opt := options{seed: *seed, seconds: *seconds, outDir: *outDir}
	if *selfcheck {
		return runSelfcheck(opt, stdout)
	}
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res := runPasses(w, opt, passes)
		printResult(stdout, res)
		line, _ := json.Marshal(res.line()) // plain numbers and strings: cannot fail
		fmt.Fprintf(stdout, "%s\n", line)
		return exitCode(res)
	}

	hdr := header(opt)
	var all []result
	code := 0
	if !*asJSON {
		printHeader(stdout, hdr)
	}
	for i := range workloads {
		res := runPasses(&workloads[i], opt, passes)
		if !*asJSON {
			printResult(stdout, res)
		}
		if exitCode(res) != 0 {
			code = 1
		}
		all = append(all, res)
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(document{Header: hdr, Results: all}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// options are the command-line settings shared by every workload run.
type options struct {
	seed    uint64
	seconds float64
	outDir  string
	// smoke is set only by the smoke test, which has a fraction of a
	// second per workload: one set-up, one epoch per *_ttt run with the
	// convergence gate lifted, and probes cut to a few milliseconds.
	smoke bool
}

// runCtx is what one pass of one workload works with.
type runCtx struct {
	options
	traced bool
	clk    *clock.Real
	tr     *tracer  // nil when untraced
	wit    *witness // nil when traced
	budget time.Duration

	metrics map[string]float64
	setups  []sample // untraced: every set-up's wall, in seconds
	// secondRound repeats the set-ups once the timed region is over.
	secondRound func()
	samples     [3]int // untraced: how many set-ups, units and throughput windows were timed
	quiet       [3]int // and how many of each the witness saw undisturbed
	attempted   int
	failed      int
	failures    []string
}

// op counts one operation. When it did not succeed, the format says why.
func (rc *runCtx) op(ok bool, format string, args ...any) {
	rc.attempted++
	if !ok {
		rc.failed++
		if len(rc.failures) < 20 {
			rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
		}
	}
}

// count books n operations of which failed did not succeed.
func (rc *runCtx) count(n, failed int, format string, args ...any) {
	rc.attempted += n
	if failed > 0 {
		rc.failed += failed
		rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
	}
}

// ops counts n operations that all succeeded.
func (rc *runCtx) ops(n int) { rc.attempted += n }

// fail records a set-up error that stops the pass.
func (rc *runCtx) fail(err error) { rc.op(false, "%v", err) }

func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = v }

// report sets the untraced pass's three metrics, each over the samples the
// witness saw undisturbed and each the quartile on its fast side: the
// set-ups' walls, the unit's walls in ms, the per-window rates. A pass that
// timed nothing of a kind leaves that metric unmeasured, which fails it.
func (rc *runCtx) report(units, rates []sample) {
	if rc.secondRound != nil {
		rc.secondRound()
	}
	ref := rc.wit.reference()
	for i, m := range []struct {
		name    string
		q       float64
		samples []sample
	}{{"setup_s", 0.25, rc.setups}, {"unit_ms_p25", 0.25, units}, {"samples_per_s_p75", 0.75, rates}} {
		if len(m.samples) == 0 {
			continue
		}
		v, n := quietQuantile(m.samples, ref, m.q)
		rc.set(m.name, v)
		rc.samples[i], rc.quiet[i] = len(m.samples), n
	}
}

// steps returns a step count, cut to an eighth for the smoke test.
func (rc *runCtx) steps(n int) int {
	if rc.smoke {
		return (n + 7) / 8
	}
	return n
}

// share returns a fraction of the pass's timed budget.
func (rc *runCtx) share(f float64) time.Duration {
	return time.Duration(float64(rc.budget) * f)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one workload run produced, over one or both passes.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Samples   [3]int                 `json:"setups_units_and_windows"`
	Quiet     [3]int                 `json:"of_which_undisturbed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Ranking   []layerShare           `json:"time_ranking,omitempty"`
	order     []string
	defs      []metric // every metric of the passes run, measured here or not
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line is the driver's view of the result. The driver wants every metric
// of the pass on every workload, so the per-layer metrics this workload
// does not reach, which the result leaves out, read 0 here.
func (r result) line() resultLine {
	all := make(map[string]metricValue, len(r.defs))
	for _, d := range r.defs {
		all[d.name] = metricValue{Unit: d.unit}
	}
	for name, m := range r.Metrics {
		all[name] = m
	}
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: all}
}

func exitCode(r result) int {
	if r.Correct {
		return 0
	}
	return 1
}

// runPasses runs the workload untraced, traced, or both, and folds the
// passes into one result.
func runPasses(w *workload, opt options, passes []bool) result {
	res := result{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Metrics: map[string]metricValue{}}
	for _, traced := range passes {
		clk := clock.NewReal()
		rc := &runCtx{
			options: opt, traced: traced, clk: clk,
			budget:  time.Duration(opt.seconds * float64(time.Second)),
			metrics: map[string]float64{},
		}
		defs := endToEnd
		if traced {
			rc.tr = newTracer(clk)
			defs = perLayer
		} else {
			rc.wit = newWitness(clk)
		}
		root := rc.tr.begin("bench."+w.name, 0)
		w.run(rc)
		rc.tr.end(root)
		rc.wit.close()
		if traced {
			processMetrics(rc)
			if err := rc.tr.write(opt.outDir, w.name, opt.seed); err != nil {
				rc.fail(fmt.Errorf("write trace: %w", err))
			}
			res.Ranking = ranking(rc.tr.spans, 6)
		} else {
			res.Samples, res.Quiet = rc.samples, rc.quiet
		}
		for _, d := range defs {
			v, ok := rc.metrics[d.name]
			delete(rc.metrics, d.name)
			if traced && d.on&w.kind == 0 {
				// Not a layer this workload reaches: left out, never 0.
				if ok {
					rc.op(false, "metric %s was measured by a workload that does not declare it", d.name)
				}
				continue
			}
			if !ok {
				// A pass that already failed stopped early; one reason is enough.
				if rc.failed == 0 {
					rc.op(false, "metric %s was not measured", d.name)
				}
				continue
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			res.order = append(res.order, d.name)
		}
		res.defs = append(res.defs, defs...)
		if len(rc.metrics) > 0 {
			rc.op(false, "%d metrics set under names the registry does not have", len(rc.metrics))
		}
		if rc.attempted == 0 {
			rc.op(false, "workload attempted nothing")
		}
		res.Attempted += rc.attempted
		res.Failed += rc.failed
		res.Failures = append(res.Failures, rc.failures...)
	}
	res.Correct = res.Failed == 0
	return res
}

func printResult(w io.Writer, r result) {
	wl := findWorkload(r.Workload)
	fmt.Fprintf(w, "\n%s  seed=%d seconds=%g\n  %s\n  unit: %s\n", r.Workload, r.Seed, r.Seconds, wl.why, wl.unit)
	if r.Samples[1] > 0 {
		fmt.Fprintf(w, "  undisturbed: %d of %d set-ups, %d of %d units, %d of %d throughput windows\n",
			r.Quiet[0], r.Samples[0], r.Quiet[1], r.Samples[1], r.Quiet[2], r.Samples[2])
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "  %-40s %16.6g ratio (%d failed of %d attempted)\n", "failed_share", share, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for i, row := range r.Ranking {
		if i == 0 {
			fmt.Fprintf(w, "  where the traced pass's time went (self time by span):\n")
		}
		fmt.Fprintf(w, "    %5.1f%%  %s\n", 100*row.Share, row.Span)
	}
}

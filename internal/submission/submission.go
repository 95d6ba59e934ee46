// Package submission implements the §4 benchmarking process: submissions
// (system description + training logs + code reference), divisions
// (Closed/Open), system categories (Available/Preview/Research), peer
// review with compliance checking over structured logs, hyperparameter
// borrowing, and results reporting — including the deliberate absence of a
// summary score (§4.2.4).
package submission

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mlog"
)

// Category is the §4.2.2 system category.
type Category string

// The three categories.
const (
	// Available systems must be rentable or purchasable, with versioned,
	// supported software.
	Available Category = "available"
	// Preview systems must become Available within 60 days or by the next
	// submission cycle.
	Preview Category = "preview"
	// Research systems are prototypes or larger-than-product scale-ups.
	Research Category = "research"
)

// SystemType is the §4.2 on-premise/cloud distinction.
type SystemType string

// System types.
const (
	OnPremise SystemType = "on-premise"
	Cloud     SystemType = "cloud"
)

// SystemDescription is the §4.1 hardware/software disclosure.
type SystemDescription struct {
	Name            string
	Org             string
	Nodes           int
	Processors      int
	Accelerators    int
	AcceleratorType string
	StoragePerNode  string
	Interconnect    string
	OS              string
	Framework       string
	LibraryVersions []string
	Type            SystemType
	// Cloud-scale inputs (§4.2.3), used when Type == Cloud.
	HostMemGB   float64
	AccelWeight float64
}

// CloudScale returns the §4.2.3 scale metric for cloud systems.
func (s SystemDescription) CloudScale() float64 {
	return float64(s.Processors) + s.HostMemGB/64 + float64(s.Accelerators)*s.AccelWeight
}

// BenchmarkEntry is one benchmark's submission: the result set plus the
// hyperparameter declarations review checks.
type BenchmarkEntry struct {
	Benchmark string
	Results   core.ResultSet
	// Batch and RefBatch feed the linear-scaling-rule check.
	Batch, RefBatch int
	HParams         []core.HParamChoice
}

// Submission is one org's entry for one round.
type Submission struct {
	Org      string
	Version  core.Version
	Division core.Division
	Category Category
	System   SystemDescription
	Entries  []BenchmarkEntry
	// CodeURL points at the open-sourced code (§4.1 requires public
	// availability at publication).
	CodeURL string
}

// Violation wraps a compliance finding with its source.
type Violation struct {
	Benchmark string
	Message   string
}

// Review performs the §4.1 peer-review compliance pass over a submission:
// every entry must carry the required number of converged runs, each log
// must pass CheckLog and support its run's convergence claim,
// Closed-division hyperparameters must satisfy the rules, and the code
// reference must be present.
func Review(sub *Submission) []Violation {
	var out []Violation
	if sub.CodeURL == "" {
		out = append(out, Violation{Message: "submission must include code to reproduce the training sessions (§4.1)"})
	}
	suite := map[string]core.Benchmark{}
	for _, b := range core.Suite(sub.Version) {
		suite[b.ID] = b
	}
	for _, e := range sub.Entries {
		b, ok := suite[e.Benchmark]
		if !ok {
			out = append(out, Violation{Benchmark: e.Benchmark, Message: "unknown benchmark for this round"})
			continue
		}
		if n := len(e.Results.ConvergedTimes()); n < b.RequiredRuns {
			out = append(out, Violation{Benchmark: e.Benchmark,
				Message: fmt.Sprintf("requires %d converged runs, submitted %d (§3.2.2)", b.RequiredRuns, n)})
		}
		for _, r := range e.Results.Runs {
			if r.Log == nil {
				out = append(out, Violation{Benchmark: e.Benchmark, Message: "run missing training-session log (§4.1)"})
				continue
			}
			for _, v := range CheckLog(sub.Version, r.Log.Events) {
				out = append(out, Violation{Benchmark: e.Benchmark, Message: v.Message})
			}
			// A convergence claim the log does not support.
			if q, ok := mlog.FinalAccuracy(r.Log.Events); r.Converged && (!ok || q < b.Target) {
				out = append(out, Violation{Benchmark: e.Benchmark,
					Message: fmt.Sprintf("run claims convergence but final logged accuracy %.4f is below target %.4f", q, b.Target)})
			}
		}
		if sub.Division == core.Closed {
			for _, v := range core.CheckClosedHyperparams(e.Benchmark, e.Batch, e.RefBatch, e.HParams) {
				out = append(out, Violation{Benchmark: e.Benchmark, Message: v.Message})
			}
		}
	}
	return out
}

// CheckLog holds the §4.1 rules for one training-session log, the only
// copy of them: mlperf-compliance and Review both call it. The log must
// name its benchmark and seed (replicability), its quality target,
// run_start and run_stop (§3.2.1 timing), and evaluate quality at least
// once (the prescribed intervals); the benchmark must belong to round v,
// the logged quality target must be that round's, and status=success
// needs a final accuracy at the target. Violations carry the logged
// benchmark ID.
func CheckLog(v core.Version, events []mlog.Event) []Violation {
	var id string
	named := false
	if ev := mlog.Find(events, mlog.KeyBenchmark); ev != nil {
		id, named = ev.Value.(string)
	}
	var out []Violation
	flag := func(format string, args ...any) {
		out = append(out, Violation{Benchmark: id, Message: fmt.Sprintf(format, args...)})
	}
	for _, req := range []struct{ key, why string }{
		{mlog.KeyBenchmark, "missing benchmark identifier event"},
		{mlog.KeySeed, "missing seed (replicability requirement)"},
		{mlog.KeyQualityTarget, "missing quality_target event"},
		{mlog.KeyRunStart, "missing run_start (timing must begin when data is touched, §3.2.1)"},
		{mlog.KeyRunStop, "missing run_stop"},
		{mlog.KeyEvalAccuracy, "no eval_accuracy events (quality must be evaluated at prescribed intervals, §4.1)"},
	} {
		if mlog.Find(events, req.key) == nil {
			flag("%s", req.why)
		}
	}
	if !named {
		return out
	}
	b, err := core.FindBenchmark(v, id)
	if err != nil {
		flag("%v", err)
		return out
	}
	if tgt := mlog.Find(events, mlog.KeyQualityTarget); tgt != nil {
		if t, ok := tgt.Value.(float64); ok && t != b.Target {
			flag("quality target %v differs from the %s suite's %v", t, v, b.Target)
		}
	}
	if q, ok := mlog.FinalAccuracy(events); ok {
		if status := mlog.Find(events, mlog.KeyStatus); status != nil && status.Value == "success" && q < b.Target {
			flag("status=success but final accuracy %.4f < target %.4f", q, b.Target)
		}
	}
	return out
}

// BorrowHyperparams implements the §4.1 review-period borrowing: "if a
// submission uses hyper-parameters that would also benefit other
// submissions, we want to ensure that those systems have an opportunity to
// adopt those hyper-parameters." It copies donor hyperparameters for the
// given benchmark into the receiver entry (the receiver then re-runs).
func BorrowHyperparams(receiver *Submission, donor *Submission, benchmark string) error {
	if receiver.Division != donor.Division {
		return fmt.Errorf("submission: borrowing across divisions is not allowed")
	}
	var src *BenchmarkEntry
	for i := range donor.Entries {
		if donor.Entries[i].Benchmark == benchmark {
			src = &donor.Entries[i]
		}
	}
	if src == nil {
		return fmt.Errorf("submission: donor has no entry for %s", benchmark)
	}
	for i := range receiver.Entries {
		if receiver.Entries[i].Benchmark == benchmark {
			receiver.Entries[i].HParams = append([]core.HParamChoice(nil), src.HParams...)
			receiver.Entries[i].Batch = src.Batch
			receiver.Entries[i].RefBatch = src.RefBatch
			return nil
		}
	}
	return fmt.Errorf("submission: receiver has no entry for %s", benchmark)
}

// ReportRow is one line of the results report: per-benchmark scores only —
// §4.2.4 rules out a summary score ("there exists no universally
// representative weighting" and submissions may omit benchmarks).
type ReportRow struct {
	Org       string
	Division  core.Division
	Category  Category
	System    string
	Scale     string
	Benchmark string
	Score     time.Duration
	// Omitted marks benchmarks the submission did not enter (allowed;
	// one of the two reasons §4.2.4 gives against a summary score).
	Omitted bool
}

// BuildReport produces the per-benchmark report for a set of reviewed
// submissions. Entries with compliance violations are excluded.
func BuildReport(subs []*Submission) []ReportRow {
	var rows []ReportRow
	for _, sub := range subs {
		violations := map[string]bool{}
		for _, v := range Review(sub) {
			violations[v.Benchmark] = true
		}
		entered := map[string]bool{}
		scale := fmt.Sprintf("%d accel", sub.System.Accelerators)
		if sub.System.Type == Cloud {
			scale = fmt.Sprintf("cloud-scale %.1f", sub.System.CloudScale())
		}
		for _, e := range sub.Entries {
			entered[e.Benchmark] = true
			row := ReportRow{
				Org: sub.Org, Division: sub.Division, Category: sub.Category,
				System: sub.System.Name, Scale: scale, Benchmark: e.Benchmark,
			}
			if violations[e.Benchmark] {
				row.Omitted = true
			} else {
				b, err := core.FindBenchmark(sub.Version, e.Benchmark)
				if err == nil {
					if score, err := e.Results.Score(b.RequiredRuns); err == nil {
						row.Score = score
					} else {
						row.Omitted = true
					}
				}
			}
			rows = append(rows, row)
		}
		for _, id := range core.BenchmarkIDs(sub.Version) {
			if !entered[id] {
				rows = append(rows, ReportRow{
					Org: sub.Org, Division: sub.Division, Category: sub.Category,
					System: sub.System.Name, Scale: scale, Benchmark: id, Omitted: true,
				})
			}
		}
	}
	return rows
}

// FormatReport renders the report as an aligned text table.
func FormatReport(rows []ReportRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-7s %-10s %-14s %-18s %-32s %s\n",
		"Org", "Div", "Category", "System", "Scale", "Benchmark", "Time-to-train")
	for _, r := range rows {
		score := "-"
		if !r.Omitted {
			score = r.Score.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&sb, "%-12s %-7s %-10s %-14s %-18s %-32s %s\n",
			r.Org, r.Division, r.Category, r.System, r.Scale, r.Benchmark, score)
	}
	return sb.String()
}

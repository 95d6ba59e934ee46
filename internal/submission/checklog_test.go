package submission

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mlog"
)

// realRun is one real core.Run: NCF for one epoch on a tick clock, short
// of its target, so its log ends status=aborted.
var realRun = sync.OnceValue(func() core.RunResult {
	b, err := core.FindBenchmark(core.V05, "recommendation")
	if err != nil {
		panic(err)
	}
	return core.Run(b, core.RunConfig{Seed: 1, MaxEpochs: 1, Clock: clock.NewTick(time.Millisecond)})
})

// edit returns a copy of events with every event of key dropped (set
// false) or given value (set true).
func edit(events []mlog.Event, key string, set bool, value any) []mlog.Event {
	var out []mlog.Event
	for _, e := range events {
		if e.Key == key {
			if !set {
				continue
			}
			e.Value = value
		}
		out = append(out, e)
	}
	return out
}

func messages(vs []Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Message)
	}
	return out
}

// CheckLog is the one copy of the §4.1 log rules: each row edits a real
// run's log, and the verdict must be the same whether the events are
// checked in memory, through the mlperf-compliance path (rendered as MLLOG
// lines and parsed back), or by Review on a submission carrying the run.
func TestCheckLog(t *testing.T) {
	run := realRun()
	if run.Err != nil || run.Converged {
		t.Fatalf("the one-epoch run must end short of its target: %v", run)
	}
	events := run.Log.Events
	for _, tc := range []struct {
		name   string
		events []mlog.Event
		want   string // the one violation's message prefix; "" = compliant
	}{
		{"real run", events, ""},
		{"no benchmark", edit(events, mlog.KeyBenchmark, false, nil), "missing benchmark identifier"},
		{"no seed", edit(events, mlog.KeySeed, false, nil), "missing seed"},
		{"no run_start", edit(events, mlog.KeyRunStart, false, nil), "missing run_start"},
		{"no run_stop", edit(events, mlog.KeyRunStop, false, nil), "missing run_stop"},
		{"no quality_target", edit(events, mlog.KeyQualityTarget, false, nil), "missing quality_target"},
		{"no eval_accuracy", edit(events, mlog.KeyEvalAccuracy, false, nil), "no eval_accuracy events"},
		{"wrong target", edit(events, mlog.KeyQualityTarget, true, 0.5), "quality target 0.5 differs from the v0.5 suite's 0.635"},
		{"another round's benchmark", edit(events, mlog.KeyBenchmark, true, "bert"), `core: unknown benchmark "bert" in v0.5`},
		{"success below target", edit(events, mlog.KeyStatus, true, "success"), "status=success but final accuracy"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			direct := messages(CheckLog(core.V05, tc.events))

			var text strings.Builder
			if err := (&mlog.Logger{Events: tc.events}).Render(&text); err != nil {
				t.Fatal(err)
			}
			parsed, err := mlog.Parse(strings.NewReader(text.String()))
			if err != nil {
				t.Fatal(err)
			}
			compliance := messages(CheckLog(core.V05, parsed))

			sub := validSubmission()
			r := run
			r.Log = &mlog.Logger{Events: tc.events}
			sub.Entries[0].Results.Runs = append(sub.Entries[0].Results.Runs, r)
			review := messages(Review(sub))

			if !reflect.DeepEqual(direct, compliance) || !reflect.DeepEqual(direct, review) {
				t.Fatalf("verdicts differ:\n  CheckLog   %q\n  compliance %q\n  Review     %q", direct, compliance, review)
			}
			if tc.want == "" {
				if len(direct) != 0 {
					t.Fatalf("compliant log flagged: %q", direct)
				}
			} else if len(direct) != 1 || !strings.HasPrefix(direct[0], tc.want) {
				t.Fatalf("violations %q, want exactly one starting %q", direct, tc.want)
			}
		})
	}
}

// FuzzCheckLog drives the mlperf-compliance path, mlog.Parse then
// CheckLog, over arbitrary bytes: it must never panic, and the same input
// must get the same verdict.
func FuzzCheckLog(f *testing.F) {
	log := realRun().Log.String()
	lines := strings.SplitAfter(log, "\n")
	f.Add([]byte(log))
	f.Add([]byte(log[:len(log)/2]))                       // cut mid-line
	f.Add([]byte(strings.Join(lines[:4], "")))            // cut at a line
	f.Add([]byte(strings.Join(lines[len(lines)/2:], ""))) // the head missing
	f.Add([]byte(strings.ReplaceAll(log, `"value":0.635`, `"value":"0.635"`)))
	f.Add([]byte(strings.ReplaceAll(log, `"value":"aborted"`, `"value":{"a":[1,null]}`)))
	f.Add([]byte(strings.ReplaceAll(log, `"recommendation"`, `7`)))
	f.Add([]byte(strings.ReplaceAll(log, `"key"`, `"kee"`)))
	f.Add([]byte(mlog.Prefix + " {\"key\":\n" + log))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := mlog.Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		again, err := mlog.Parse(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second parse failed: %v", err)
		}
		if v1, v2 := CheckLog(core.V05, first), CheckLog(core.V05, again); !reflect.DeepEqual(v1, v2) {
			t.Fatalf("same input, two verdicts: %q vs %q", messages(v1), messages(v2))
		}
	})
}

package mlog

import (
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	l := NewLogger(nil)
	l.Simple(0, KeyBenchmark, "recommendation")
	l.Simple(5, KeyRunStart, "go")
	l.EvalAccuracy(100, 0, 0.42)
	l.EvalAccuracy(200, 1, 0.66)
	l.Simple(250, KeyRunStop, "success")

	parsed, err := Parse(strings.NewReader(l.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(l.Events) {
		t.Fatalf("parsed %d of %d events", len(parsed), len(l.Events))
	}
	if parsed[0].Key != KeyBenchmark || parsed[0].Value != "recommendation" {
		t.Fatalf("first event %+v", parsed[0])
	}
	if parsed[2].Epoch != 0 || parsed[3].Epoch != 1 {
		t.Fatal("epoch numbers must survive the round trip")
	}
}

func TestParseIgnoresFreeFormLines(t *testing.T) {
	input := `some training chatter
:::MLLOG {"time_ms":1,"key":"run_start","value":"x","epoch_num":-1}
more chatter :::MLLOG not at line start is also skipped? no — prefix match only at start
:::MLLOG {"time_ms":2,"key":"run_stop","value":"success","epoch_num":-1}
`
	events, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("expected 2 events, got %d", len(events))
	}
}

func TestParseRejectsMalformedMLLOG(t *testing.T) {
	if _, err := Parse(strings.NewReader(":::MLLOG {broken")); err == nil {
		t.Fatal("malformed MLLOG line must error")
	}
}

func TestFindAndFindAll(t *testing.T) {
	l := NewLogger(nil)
	l.Simple(0, KeyRunStart, "a")
	l.EvalAccuracy(1, 0, 0.1)
	l.EvalAccuracy(2, 1, 0.2)
	if Find(l.Events, KeyRunStop) != nil {
		t.Fatal("missing key should return nil")
	}
	if got := len(FindAll(l.Events, KeyEvalAccuracy)); got != 2 {
		t.Fatalf("FindAll found %d", got)
	}
}

func TestFinalAccuracy(t *testing.T) {
	l := NewLogger(nil)
	if _, ok := FinalAccuracy(l.Events); ok {
		t.Fatal("no accuracy yet")
	}
	l.EvalAccuracy(1, 0, 0.3)
	l.EvalAccuracy(2, 1, 0.7)
	v, ok := FinalAccuracy(l.Events)
	if !ok || v != 0.7 {
		t.Fatalf("final accuracy %v ok=%v", v, ok)
	}
}

func TestFinalAccuracyAfterParse(t *testing.T) {
	l := NewLogger(nil)
	l.EvalAccuracy(1, 0, 0.55)
	events, err := Parse(strings.NewReader(l.String()))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := FinalAccuracy(events)
	if !ok || v != 0.55 {
		t.Fatalf("accuracy after parse: %v ok=%v (JSON numbers decode as float64)", v, ok)
	}
}

func TestRunDuration(t *testing.T) {
	l := NewLogger(nil)
	l.Simple(100, KeyRunStart, "x")
	l.Simple(450, KeyRunStop, "success")
	d, ok := RunDurationMS(l.Events)
	if !ok || d != 350 {
		t.Fatalf("duration %d ok=%v", d, ok)
	}
	if _, ok := RunDurationMS(nil); ok {
		t.Fatal("missing markers")
	}
}

func TestLoggerStreamsToWriter(t *testing.T) {
	var sb strings.Builder
	l := NewLogger(&sb)
	l.Simple(0, KeyRunStart, "x")
	if !strings.HasPrefix(sb.String(), Prefix) {
		t.Fatalf("streamed line %q", sb.String())
	}
}

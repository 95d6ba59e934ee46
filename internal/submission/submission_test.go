package submission

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/mlog"
)

// fakeRun builds a converged run with a well-formed log.
func fakeRun(bench string, target float64, ttt time.Duration, quality float64) core.RunResult {
	l := mlog.NewLogger(nil)
	l.Simple(0, mlog.KeyBenchmark, bench)
	l.Simple(0, mlog.KeySeed, uint64(1))
	l.Simple(0, mlog.KeyQualityTarget, target)
	l.Simple(0, mlog.KeyRunStart, bench)
	l.EvalAccuracy(int64(ttt/time.Millisecond), 0, quality)
	l.Simple(int64(ttt/time.Millisecond), mlog.KeyRunStop, "success")
	return core.RunResult{
		Benchmark: bench, Converged: quality >= target,
		TimeToTrain: ttt, FinalQuality: quality, Epochs: 5, Log: l,
	}
}

func fakeResults(bench string, target float64, n int) core.ResultSet {
	rs := core.ResultSet{Benchmark: bench}
	for i := 0; i < n; i++ {
		rs.Runs = append(rs.Runs, fakeRun(bench, target, time.Duration(100+i)*time.Millisecond, target+0.01))
	}
	return rs
}

func validSubmission() *Submission {
	return &Submission{
		Org: "org", Version: core.V05, Division: core.Closed,
		Category: Available, CodeURL: "https://example.com/code",
		System: SystemDescription{Name: "sys", Accelerators: 8, Type: OnPremise},
		Entries: []BenchmarkEntry{{
			Benchmark: "recommendation",
			Results:   fakeResults("recommendation", 0.635, 10),
			Batch:     64, RefBatch: 64,
		}},
	}
}

func TestReviewAcceptsValidSubmission(t *testing.T) {
	if v := Review(validSubmission()); len(v) != 0 {
		t.Fatalf("valid submission flagged: %v", v)
	}
}

func TestReviewRequiresCode(t *testing.T) {
	s := validSubmission()
	s.CodeURL = ""
	if v := Review(s); len(v) == 0 {
		t.Fatal("missing code must be flagged (§4.1 open sourcing)")
	}
}

func TestReviewRequiresRunCount(t *testing.T) {
	s := validSubmission()
	s.Entries[0].Results = fakeResults("recommendation", 0.635, 7) // needs 10
	if v := Review(s); len(v) == 0 {
		t.Fatal("insufficient runs must be flagged")
	}
}

func TestReviewCatchesWrongTarget(t *testing.T) {
	s := validSubmission()
	rs := core.ResultSet{Benchmark: "recommendation"}
	for i := 0; i < 10; i++ {
		rs.Runs = append(rs.Runs, fakeRun("recommendation", 0.5 /* wrong target */, time.Second, 0.7))
	}
	s.Entries[0].Results = rs
	found := false
	for _, v := range Review(s) {
		if strings.Contains(v.Message, "quality target") {
			found = true
		}
	}
	if !found {
		t.Fatal("wrong logged target must be flagged")
	}
}

func TestReviewCatchesUnsupportedConvergenceClaim(t *testing.T) {
	s := validSubmission()
	rs := core.ResultSet{Benchmark: "recommendation"}
	for i := 0; i < 10; i++ {
		r := fakeRun("recommendation", 0.635, time.Second, 0.5) // below target
		r.Converged = true                                      // fraudulent claim
		rs.Runs = append(rs.Runs, r)
	}
	s.Entries[0].Results = rs
	found := false
	for _, v := range Review(s) {
		if strings.Contains(v.Message, "below target") {
			found = true
		}
	}
	if !found {
		t.Fatal("unsupported convergence claims must be flagged")
	}
}

func TestReviewClosedDivisionHyperparams(t *testing.T) {
	s := validSubmission()
	s.Entries[0].Batch = 256
	s.Entries[0].HParams = []core.HParamChoice{
		{Name: "learning_rate", Value: 99, Reference: 0.002},
	}
	if v := Review(s); len(v) == 0 {
		t.Fatal("off-rule learning rate must be flagged in Closed")
	}
	// The same choices are fine in the Open division.
	s.Division = core.Open
	if v := Review(s); len(v) != 0 {
		t.Fatalf("Open division allows optimizer freedom: %v", v)
	}
}

func TestReviewUnknownBenchmark(t *testing.T) {
	s := validSubmission()
	s.Entries[0].Benchmark = "made_up"
	s.Entries[0].Results.Benchmark = "made_up"
	if v := Review(s); len(v) == 0 {
		t.Fatal("unknown benchmark must be flagged")
	}
}

func TestBorrowHyperparams(t *testing.T) {
	donor := validSubmission()
	donor.Entries[0].HParams = []core.HParamChoice{{Name: "batch_size", Value: 128, Reference: 64}}
	donor.Entries[0].Batch = 128
	receiver := validSubmission()
	if err := BorrowHyperparams(receiver, donor, "recommendation"); err != nil {
		t.Fatal(err)
	}
	if receiver.Entries[0].Batch != 128 || len(receiver.Entries[0].HParams) != 1 {
		t.Fatal("borrowing must copy donor settings")
	}
	// Borrowing across divisions is not allowed.
	open := validSubmission()
	open.Division = core.Open
	if err := BorrowHyperparams(open, donor, "recommendation"); err == nil {
		t.Fatal("cross-division borrowing must fail")
	}
	if err := BorrowHyperparams(receiver, donor, "nonexistent"); err == nil {
		t.Fatal("borrowing a missing benchmark must fail")
	}
}

func TestBuildReportScoresAndOmissions(t *testing.T) {
	s := validSubmission()
	rows := BuildReport([]*Submission{s})
	// One row per suite benchmark: 1 entered + 6 omitted.
	if len(rows) != 7 {
		t.Fatalf("report rows %d", len(rows))
	}
	scored, omitted := 0, 0
	for _, r := range rows {
		if r.Omitted {
			omitted++
		} else {
			scored++
			if r.Score <= 0 {
				t.Fatal("scored row must carry a positive time")
			}
		}
	}
	if scored != 1 || omitted != 6 {
		t.Fatalf("scored %d omitted %d", scored, omitted)
	}
	// There is deliberately no aggregate: the report is per-benchmark only.
	text := FormatReport(rows)
	if strings.Contains(strings.ToLower(text), "summary") || strings.Contains(strings.ToLower(text), "overall") {
		t.Fatal("report must not contain a summary score (§4.2.4)")
	}
}

func TestBuildReportExcludesViolatingEntries(t *testing.T) {
	s := validSubmission()
	s.Entries[0].Results = fakeResults("recommendation", 0.635, 3) // too few
	rows := BuildReport([]*Submission{s})
	for _, r := range rows {
		if r.Benchmark == "recommendation" && !r.Omitted {
			t.Fatal("non-compliant entry must not be scored")
		}
	}
}

func TestCloudScaleReporting(t *testing.T) {
	s := validSubmission()
	s.System.Type = Cloud
	s.System.Processors = 8
	s.System.HostMemGB = 256
	s.System.Accelerators = 4
	s.System.AccelWeight = 6
	rows := BuildReport([]*Submission{s})
	if !strings.Contains(rows[0].Scale, "cloud-scale") {
		t.Fatalf("cloud systems report the cloud-scale metric: %q", rows[0].Scale)
	}
	want := 8.0 + 256.0/64 + 4*6
	if s.System.CloudScale() != want {
		t.Fatalf("cloud scale %v want %v", s.System.CloudScale(), want)
	}
}

func TestCloudScaleMonotoneProperty(t *testing.T) {
	f := func(procsRaw, memRaw, accRaw uint8) bool {
		sys := SystemDescription{Processors: int(procsRaw), HostMemGB: float64(memRaw), Accelerators: int(accRaw), AccelWeight: 4}
		base := sys.CloudScale()
		more := func(edit func(*SystemDescription)) float64 {
			s := sys
			edit(&s)
			return s.CloudScale()
		}
		// Adding resources never lowers the scale metric.
		return more(func(s *SystemDescription) { s.Processors++ }) >= base &&
			more(func(s *SystemDescription) { s.HostMemGB += 64 }) >= base &&
			more(func(s *SystemDescription) { s.Accelerators++ }) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

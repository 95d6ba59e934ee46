package cluster

import (
	"testing"
	"time"
)

func refSystem(chips int) System {
	return System{Name: "t", Chips: chips, Chip: ReferenceChip(), Network: ReferenceNetwork()}
}

func TestStepTimeDecomposition(t *testing.T) {
	w := WorkloadModels()[0]
	v05, _ := Rounds()
	single := StepTime(refSystem(1), w, v05, 32)
	// One chip has no all-reduce; time is pure compute.
	wantSec := 32 * w.FlopsPerSample / ReferenceChip().FlopsPerSec
	if got := single.Seconds(); got < wantSec*0.99 || got > wantSec*1.01 {
		t.Fatalf("single-chip step time %v want %v", got, wantSec)
	}
	// At a compute-dominated global batch, 8 chips beat 1 chip per step;
	// at tiny batches the all-reduce dominates and they do not — both
	// behaviours are intended.
	big1 := StepTime(refSystem(1), w, v05, 2048)
	big8 := StepTime(refSystem(8), w, v05, 2048)
	if big8 >= big1 {
		t.Fatal("8 chips should be faster per step at a large global batch")
	}
	small8 := StepTime(refSystem(8), w, v05, 32)
	if small8 <= StepTime(refSystem(1), w, v05, 32) {
		t.Fatal("at tiny batches the all-reduce should dominate")
	}
}

func TestStepTimeCommGrowsWithChips(t *testing.T) {
	w := WorkloadModels()[0]
	v05, _ := Rounds()
	// At fixed per-chip batch, more chips -> more all-reduce latency.
	t64 := StepTime(refSystem(64), w, v05, 64*8)
	t512 := StepTime(refSystem(512), w, v05, 512*8)
	if t512 <= t64 {
		t.Fatal("all-reduce cost must grow with system size at fixed per-chip batch")
	}
}

func TestEpochsToTargetGrowsWithBatch(t *testing.T) {
	w := WorkloadModels()[0] // ResNet model
	small := w.EpochsToTarget(256)
	big := w.EpochsToTarget(16384)
	if big <= small {
		t.Fatal("large batches must need more epochs (§2.2.2)")
	}
}

// §2.2.2's concrete numbers: ResNet-50 takes ~64 epochs at 4K batch and
// over 80 at 16K (≈30% more computation).
func TestResNetBatchPenaltyMatchesPaper(t *testing.T) {
	var resnet WorkloadModel
	for _, w := range WorkloadModels() {
		if w.ID == "image_classification" {
			resnet = w
		}
	}
	e4k := resnet.EpochsToTarget(4096)
	e16k := resnet.EpochsToTarget(16384)
	if e4k < 55 || e4k > 75 {
		t.Fatalf("epochs at 4K batch = %.1f, paper ≈64", e4k)
	}
	if e16k < 78 {
		t.Fatalf("epochs at 16K batch = %.1f, paper >80", e16k)
	}
	if inc := e16k/e4k - 1; inc < 0.2 || inc > 0.5 {
		t.Fatalf("computation increase %.0f%%, paper ≈30%%", inc*100)
	}
}

func TestTimeToTrainValidation(t *testing.T) {
	w := WorkloadModels()[0]
	v05, _ := Rounds()
	if _, err := TimeToTrain(refSystem(16), w, v05, 100); err == nil {
		t.Fatal("non-divisible batch must error")
	}
	if _, err := TimeToTrain(refSystem(1), w, v05, w.MaxBatchPerChip*2); err == nil {
		t.Fatal("memory-exceeding batch must error")
	}
	if _, err := TimeToTrain(refSystem(16), w, v05, 16); err == nil {
		t.Fatal("underutilizing batch must error")
	}
}

func TestBestBatchFeasibleAndOptimal(t *testing.T) {
	w := WorkloadModels()[0]
	v05, _ := Rounds()
	b, best, err := BestBatch(refSystem(16), w, v05)
	if err != nil {
		t.Fatal(err)
	}
	if b%16 != 0 {
		t.Fatal("batch must be divisible by chips")
	}
	// No ladder point beats it.
	for perChip := w.MinBatchPerChip; perChip <= w.MaxBatchPerChip; perChip *= 2 {
		if tt, err := TimeToTrain(refSystem(16), w, v05, perChip*16); err == nil && tt < best {
			t.Fatalf("ladder point %d beats BestBatch", perChip*16)
		}
	}
}

func TestV06FasterAt16Chips(t *testing.T) {
	v05, v06 := Rounds()
	for _, w := range WorkloadModels() {
		_, t05, err1 := BestBatch(refSystem(16), w, v05)
		_, t06, err2 := BestBatch(refSystem(16), w, v06)
		if err1 != nil || err2 != nil {
			continue
		}
		if t06 >= t05 {
			t.Fatalf("%s: v0.6 should beat v0.5 at 16 chips (%v vs %v)", w.ID, t06, t05)
		}
	}
}

func TestFigure4InPaperRegime(t *testing.T) {
	rows := Figure4()
	if len(rows) != 7 {
		t.Fatalf("figure 4 rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 1.0 || r.Speedup > 3.0 {
			t.Fatalf("%s speedup %.2f outside plausible band", r.Benchmark, r.Speedup)
		}
	}
	g := GeoMeanSpeedup(rows)
	if g < 1.15 || g > 1.7 {
		t.Fatalf("figure 4 geomean %.2f, paper reports ≈1.3", g)
	}
}

func TestFigure5InPaperRegime(t *testing.T) {
	rows := Figure5()
	if len(rows) != 7 {
		t.Fatalf("figure 5 rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Increase < 1.0 {
			t.Fatalf("%s: optimal scale shrank in v0.6", r.Benchmark)
		}
		if r.V06Time >= r.V05Time {
			t.Fatalf("%s: best overall time regressed", r.Benchmark)
		}
	}
	g := GeoMeanIncrease(rows)
	if g < 3.5 || g > 8.0 {
		t.Fatalf("figure 5 geomean %.1fx, paper reports ≈5.5x", g)
	}
}

func TestWorkloadModelsCoverSuite(t *testing.T) {
	ids := map[string]bool{}
	for _, w := range WorkloadModels() {
		ids[w.ID] = true
	}
	for _, want := range []string{
		"image_classification", "object_detection_ssd", "instance_segmentation_maskrcnn",
		"translation_gnmt", "translation_transformer", "recommendation", "reinforcement_learning",
	} {
		if !ids[want] {
			t.Fatalf("missing workload model %s", want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	if FormatDuration(90*time.Second) != "1.5m" {
		t.Fatal("minutes formatting")
	}
	if FormatDuration(2*time.Hour) != "2.0h" {
		t.Fatal("hours formatting")
	}
	if FormatDuration(500*time.Millisecond) != "0.5s" {
		t.Fatal("seconds formatting")
	}
}

// Regression: BestBatch's doubling sweep looped forever when a workload
// passed MinBatchPerChip == 0 (0·2 == 0). A zero min now clamps to 1 and
// the sweep terminates; if this regresses the test hangs and times out.
func TestBestBatchZeroMinTerminates(t *testing.T) {
	w := WorkloadModel{
		ID: "zero-min", DatasetN: 1e5, FlopsPerSample: 1e9, ModelBytes: 1e7,
		BaseEpochs: 5, CritBatch: 1e4, MaxBatchPerChip: 64, MinBatchPerChip: 0,
	}
	sys := System{Name: "t", Chips: 4, Chip: ReferenceChip(), Network: ReferenceNetwork()}
	v05, _ := Rounds()
	b, d, err := BestBatch(sys, w, v05)
	if err != nil {
		t.Fatal(err)
	}
	if b < 4 || d <= 0 {
		t.Fatalf("implausible best batch %d time %v", b, d)
	}
	// BestScale drives the same ladder across system sizes.
	bs, bb, bt := BestScale(ReferenceChip(), ReferenceNetwork(), w, v05)
	if bs.Chips < 1 || bb < 1 || bt <= 0 {
		t.Fatalf("BestScale with zero min: %+v batch %d time %v", bs, bb, bt)
	}
}

// A non-power-of-two min walks the ladder 3, 6, 12, ... and terminates.
func TestBestBatchNonPowerOfTwoMin(t *testing.T) {
	w := WorkloadModel{
		ID: "npo2-min", DatasetN: 1e5, FlopsPerSample: 1e9, ModelBytes: 1e7,
		BaseEpochs: 5, CritBatch: 1e4, MaxBatchPerChip: 48, MinBatchPerChip: 3,
	}
	sys := System{Name: "t", Chips: 2, Chip: ReferenceChip(), Network: ReferenceNetwork()}
	v05, _ := Rounds()
	b, _, err := BestBatch(sys, w, v05)
	if err != nil {
		t.Fatal(err)
	}
	if perChip := b / sys.Chips; perChip < 3 || perChip > 48 {
		t.Fatalf("best per-chip batch %d outside [3,48]", perChip)
	}
}

// An unusable max is an error, not an empty sweep.
func TestBestBatchInvalidMax(t *testing.T) {
	w := WorkloadModel{ID: "bad-max", MaxBatchPerChip: 0}
	sys := System{Chips: 1, Chip: ReferenceChip(), Network: ReferenceNetwork()}
	v05, _ := Rounds()
	if _, _, err := BestBatch(sys, w, v05); err == nil {
		t.Fatal("expected error for MaxBatchPerChip 0")
	}
}

// Calibration ties the analytic model to a measured engine: after fitting,
// the single-chip analytic step time reproduces the measurement.
func TestCalibrateFromMeasurement(t *testing.T) {
	w := WorkloadModels()[0]
	chip := ReferenceChip()
	const measured = 0.125 // seconds per step
	const batch = 256
	v05, v06 := Rounds()
	sys := System{Name: "one", Chips: 1, Chip: chip, Network: ReferenceNetwork()}
	// The fit must round-trip under the round it was made for — including
	// v0.6, whose SoftwareEfficiency is not 1.0.
	for _, round := range []RoundConfig{v05, v06} {
		cal := w.CalibrateFromMeasurement(measured, batch, chip, round, 4e6)
		if cal.ModelBytes != 4e6 {
			t.Fatalf("%s: ModelBytes = %g", round.Version, cal.ModelBytes)
		}
		got := StepTime(sys, cal, round, batch).Seconds()
		if diff := got - measured; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("%s: calibrated step time %v, want %v", round.Version, got, measured)
		}
	}
}

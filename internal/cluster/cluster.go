// Package cluster is the simulated scale-out substrate standing in for the
// GPU/TPU clusters MLPerf submissions run on. It models data-parallel
// training time as compute + ring all-reduce per step, with epochs-to-
// target growing with global batch size (the large-batch penalty of
// §2.2.2), and per-round software-efficiency and rule changes (LARS,
// higher targets) that drive the v0.5→v0.6 movements of Figures 4 and 5.
package cluster

import (
	"fmt"
	"math"
	"time"
)

// Chip models one accelerator.
type Chip struct {
	// FlopsPerSec is sustained throughput.
	FlopsPerSec float64
	// MemBytes bounds the per-chip batch (activation memory).
	MemBytes float64
}

// Interconnect models the all-reduce fabric.
type Interconnect struct {
	// BandwidthBytes is per-link bandwidth in bytes/sec.
	BandwidthBytes float64
	// LatencySec is per-hop latency.
	LatencySec float64
}

// System is a homogeneous data-parallel cluster.
type System struct {
	Name    string
	Chips   int
	Chip    Chip
	Network Interconnect
}

// WorkloadModel captures a benchmark's scaling behaviour analytically,
// calibrated so the shapes match both our measured small-scale runs and
// the paper's reported large-scale behaviour.
type WorkloadModel struct {
	ID string
	// DatasetN is the number of training examples per epoch.
	DatasetN float64
	// FlopsPerSample is forward+backward cost per example.
	FlopsPerSample float64
	// ModelBytes is the gradient payload all-reduced each step.
	ModelBytes float64
	// ActBytesPerSample is the per-example boundary-activation payload a
	// pipeline stage forwards to its successor (and receives back as a
	// gradient), used by the pipeline-parallel step model.
	ActBytesPerSample float64
	// BaseEpochs is the epochs-to-target at small batch (E0).
	BaseEpochs float64
	// CritBatch is the batch size where the large-batch penalty bites:
	// epochs(B) = BaseEpochs · (1 + B/CritBatch), the §2.2.2 effect
	// (MLPerf v0.5 ResNet-50: ~64 epochs at 4K batch, >80 at 16K).
	CritBatch float64
	// MaxBatchPerChip bounds per-chip batch by memory.
	MaxBatchPerChip int
	// MinBatchPerChip below which a chip is hopelessly underutilized.
	MinBatchPerChip int
}

// EpochsToTarget returns the expected epochs to reach the quality target at
// global batch b.
func (w WorkloadModel) EpochsToTarget(b int) float64 {
	return w.BaseEpochs * (1 + float64(b)/w.CritBatch)
}

// CalibrateFromMeasurement returns a copy of w with FlopsPerSample fitted so
// the analytic single-chip StepTime under the given round equals a measured
// per-step duration, and ModelBytes set from a measured gradient payload
// (e.g. 8 bytes per element of the engine's flattened gradient). The
// round's SoftwareEfficiency is folded into the fit, so the calibration
// round-trips exactly for any round. This ties the analytic Figures 4/5
// sweeps to the real data-parallel engine in internal/pipeline: the same
// workload model then tells one story in both the simulated and the
// measured scaling curves.
func (w WorkloadModel) CalibrateFromMeasurement(stepSec float64, globalBatch int, chip Chip, round RoundConfig, modelBytes float64) WorkloadModel {
	if globalBatch > 0 && stepSec > 0 {
		w.FlopsPerSample = stepSec * chip.FlopsPerSec * round.SoftwareEfficiency / float64(globalBatch)
	}
	if modelBytes > 0 {
		w.ModelBytes = modelBytes
	}
	return w
}

// RoundConfig models what changes between submission rounds on fixed
// hardware (§5: "The two rounds were six months apart and the underlying
// hardware systems did not change").
type RoundConfig struct {
	Version string
	// SoftwareEfficiency multiplies sustained chip throughput: the stack
	// improvements ("incorporated into the underlying software
	// infrastructure and passed on to users").
	SoftwareEfficiency float64
	// TargetFactor multiplies epochs-to-target (raised quality targets:
	// >1 means more training work per run).
	TargetFactor float64
	// LargeBatchFactor multiplies CritBatch (rule changes such as
	// admitting LARS stretch the efficient-batch regime).
	LargeBatchFactor float64
	// MaxChips is the largest system entered that round.
	MaxChips int
}

// Rounds returns the two published rounds with calibrated deltas.
func Rounds() (v05, v06 RoundConfig) {
	v05 = RoundConfig{Version: "v0.5", SoftwareEfficiency: 1.0, TargetFactor: 1.0, LargeBatchFactor: 1.0, MaxChips: 384}
	// v0.6: ~6 months of stack optimization, higher targets, LARS-class
	// rule changes enabling much larger scale.
	v06 = RoundConfig{Version: "v0.6", SoftwareEfficiency: 1.42, TargetFactor: 1.10, LargeBatchFactor: 6.0, MaxChips: 4096}
	return v05, v06
}

// StepTime returns the simulated wall time of one training step at the
// given global batch on the system: per-chip compute plus a ring
// all-reduce of the gradient payload.
func StepTime(sys System, w WorkloadModel, round RoundConfig, globalBatch int) time.Duration {
	perChip := float64(globalBatch) / float64(sys.Chips)
	compute := perChip * w.FlopsPerSample / (sys.Chip.FlopsPerSec * round.SoftwareEfficiency)
	// Ring all-reduce: 2(p-1)/p of the payload crosses each link, plus a
	// latency term per ring step.
	p := float64(sys.Chips)
	comm := 0.0
	if sys.Chips > 1 {
		comm = 2*(p-1)/p*w.ModelBytes/sys.Network.BandwidthBytes +
			2*(p-1)*sys.Network.LatencySec
	}
	return time.Duration((compute + comm) * float64(time.Second))
}

// TimeToTrain simulates the full time-to-train on the system at the given
// global batch, applying the round's target factor and batch penalty.
func TimeToTrain(sys System, w WorkloadModel, round RoundConfig, globalBatch int) (time.Duration, error) {
	if globalBatch%sys.Chips != 0 {
		return 0, fmt.Errorf("cluster: global batch %d not divisible by %d chips", globalBatch, sys.Chips)
	}
	perChip := globalBatch / sys.Chips
	if perChip > w.MaxBatchPerChip {
		return 0, fmt.Errorf("cluster: per-chip batch %d exceeds memory bound %d", perChip, w.MaxBatchPerChip)
	}
	if perChip < w.MinBatchPerChip {
		return 0, fmt.Errorf("cluster: per-chip batch %d underutilizes the chip (min %d)", perChip, w.MinBatchPerChip)
	}
	critical := w.CritBatch * round.LargeBatchFactor
	epochs := w.BaseEpochs * (1 + float64(globalBatch)/critical) * round.TargetFactor
	steps := epochs * w.DatasetN / float64(globalBatch)
	return time.Duration(steps * float64(StepTime(sys, w, round, globalBatch))), nil
}

// BestBatch searches the feasible batch ladder for the fastest
// time-to-train on the system, returning the batch and its time. The ladder
// starts at MinBatchPerChip (clamped to 1: a zero or negative min would make
// the doubling sweep loop forever, since 0*2 == 0) and doubles up to
// MaxBatchPerChip; non-power-of-two bounds are fine.
func BestBatch(sys System, w WorkloadModel, round RoundConfig) (int, time.Duration, error) {
	if w.MaxBatchPerChip < 1 {
		return 0, 0, fmt.Errorf("cluster: workload %s has MaxBatchPerChip %d < 1", w.ID, w.MaxBatchPerChip)
	}
	minPerChip := w.MinBatchPerChip
	if minPerChip < 1 {
		minPerChip = 1
	}
	best := time.Duration(math.MaxInt64)
	bestBatch := 0
	for perChip := minPerChip; perChip <= w.MaxBatchPerChip; perChip *= 2 {
		b := perChip * sys.Chips
		t, err := TimeToTrain(sys, w, round, b)
		if err != nil {
			continue
		}
		if t < best {
			best, bestBatch = t, b
		}
	}
	if bestBatch == 0 {
		return 0, 0, fmt.Errorf("cluster: no feasible batch for %d chips", sys.Chips)
	}
	return bestBatch, best, nil
}

// BestScale sweeps system sizes (powers of two up to the round's MaxChips)
// and returns the configuration with the fastest overall score — the
// "fastest overall entry" of Figure 5.
func BestScale(chip Chip, net Interconnect, w WorkloadModel, round RoundConfig) (System, int, time.Duration) {
	bestSys := System{}
	bestBatch := 0
	bestT := time.Duration(math.MaxInt64)
	for chips := 1; chips <= round.MaxChips; chips *= 2 {
		sys := System{Name: fmt.Sprintf("sim-%dx", chips), Chips: chips, Chip: chip, Network: net}
		b, t, err := BestBatch(sys, w, round)
		if err != nil {
			continue
		}
		if t < bestT {
			bestSys, bestBatch, bestT = sys, b, t
		}
	}
	return bestSys, bestBatch, bestT
}

// ReferenceChip is the simulated accelerator both rounds run on (hardware
// held fixed across rounds, as in §5).
func ReferenceChip() Chip {
	return Chip{FlopsPerSec: 120e12, MemBytes: 16e9}
}

// ReferenceNetwork is the simulated interconnect.
func ReferenceNetwork() Interconnect {
	return Interconnect{BandwidthBytes: 25e9, LatencySec: 5e-6}
}

// WorkloadModels returns per-benchmark scaling models. Values are loosely
// derived from the public v0.5 benchmark characteristics (dataset sizes,
// model sizes, epochs-to-target) so the simulated figures land in the
// paper's regime.
func WorkloadModels() []WorkloadModel {
	return []WorkloadModel{
		{ID: "image_classification", DatasetN: 1.28e6, FlopsPerSample: 2.3e10,
			ModelBytes: 1.0e8, ActBytesPerSample: 3.2e6, BaseEpochs: 57, CritBatch: 35000,
			MaxBatchPerChip: 256, MinBatchPerChip: 4},
		{ID: "object_detection_ssd", DatasetN: 1.18e5, FlopsPerSample: 8.8e10,
			ModelBytes: 1.4e8, ActBytesPerSample: 4.6e6, BaseEpochs: 50, CritBatch: 9000,
			MaxBatchPerChip: 128, MinBatchPerChip: 2},
		{ID: "instance_segmentation_maskrcnn", DatasetN: 1.18e5, FlopsPerSample: 8.0e11,
			ModelBytes: 1.8e8, ActBytesPerSample: 8.0e6, BaseEpochs: 13, CritBatch: 1400,
			MaxBatchPerChip: 16, MinBatchPerChip: 1},
		{ID: "translation_gnmt", DatasetN: 4.5e6, FlopsPerSample: 4.0e10,
			ModelBytes: 6.5e8, ActBytesPerSample: 4.0e5, BaseEpochs: 5, CritBatch: 9000,
			MaxBatchPerChip: 128, MinBatchPerChip: 4},
		{ID: "translation_transformer", DatasetN: 4.5e6, FlopsPerSample: 2.0e10,
			ModelBytes: 8.4e8, ActBytesPerSample: 2.1e5, BaseEpochs: 7, CritBatch: 16000,
			MaxBatchPerChip: 256, MinBatchPerChip: 8},
		{ID: "recommendation", DatasetN: 2.0e7, FlopsPerSample: 4.0e7,
			ModelBytes: 5.0e8, ActBytesPerSample: 2.0e3, BaseEpochs: 13, CritBatch: 200000,
			MaxBatchPerChip: 16384, MinBatchPerChip: 256},
		{ID: "reinforcement_learning", DatasetN: 2.0e6, FlopsPerSample: 1.0e10,
			ModelBytes: 2.4e7, ActBytesPerSample: 2.6e4, BaseEpochs: 20, CritBatch: 7000,
			MaxBatchPerChip: 64, MinBatchPerChip: 1},
	}
}

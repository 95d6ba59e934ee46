package cluster

import (
	"fmt"
	"math"
	"time"
)

// PipelineConfig models stage-partitioned (pipeline-parallel) execution:
// the model is split over Stages chips and every per-rank batch flows
// through them as Microbatches microbatches — the analytic counterpart of
// the executed engine in internal/pipeline.
type PipelineConfig struct {
	// Stages is the pipeline depth S (>= 1; 1 means pure data parallelism).
	Stages int
	// Microbatches is M, the per-rank microbatch count (>= 1).
	Microbatches int
}

// Bubble returns the fill-drain utilization factor (M + S − 1) / M: the
// pipeline executes M microbatches in M + S − 1 stage-slots, so compute
// time inflates by the (S−1)/M bubble the engine's 1F1B order pays.
func (p PipelineConfig) Bubble() float64 {
	return float64(p.Microbatches+p.Stages-1) / float64(p.Microbatches)
}

// StepTimePipeline returns the simulated wall time of one training step at
// the given global batch on the system under hybrid DP×PP execution: the
// system's chips are partitioned into sys.Chips/S data-parallel ranks of S
// pipeline stages each. Per-step cost is bubble-inflated per-stage compute,
// plus the stage-group gradient ring (payload ModelBytes/S over dp
// members, the S group rings running concurrently), plus the boundary
// activation traffic crossing the S−1 stage gaps on the fill/drain
// critical path. At Stages = 1 it reduces exactly to StepTime.
func StepTimePipeline(sys System, w WorkloadModel, round RoundConfig, globalBatch int, pp PipelineConfig) (time.Duration, error) {
	if pp.Stages < 1 || pp.Microbatches < 1 {
		return 0, fmt.Errorf("cluster: invalid pipeline config %+v", pp)
	}
	if sys.Chips%pp.Stages != 0 {
		return 0, fmt.Errorf("cluster: %d chips not divisible by %d pipeline stages", sys.Chips, pp.Stages)
	}
	dp := sys.Chips / pp.Stages
	perRank := float64(globalBatch) / float64(dp)

	// Compute: each chip holds 1/S of the model; the schedule fills and
	// drains, inflating ideal time by the bubble.
	ideal := perRank * w.FlopsPerSample / (sys.Chip.FlopsPerSec * round.SoftwareEfficiency)
	compute := ideal / float64(pp.Stages) * pp.Bubble()

	comm := 0.0
	if dp > 1 {
		// Stage-group ring all-reduce: each of the S concurrent group
		// rings moves 1/S of the gradient payload over dp members.
		p := float64(dp)
		comm += 2*(p-1)/p*(w.ModelBytes/float64(pp.Stages))/sys.Network.BandwidthBytes +
			2*(p-1)*sys.Network.LatencySec
	}
	if pp.Stages > 1 {
		// Boundary activations: one microbatch payload crosses each of the
		// S−1 gaps during fill and again (as gradients) during drain.
		actPayload := perRank / float64(pp.Microbatches) * w.ActBytesPerSample
		comm += 2 * float64(pp.Stages-1) *
			(actPayload/sys.Network.BandwidthBytes + sys.Network.LatencySec)
	}
	return time.Duration((compute + comm) * float64(time.Second)), nil
}

// TimeToTrainPipeline simulates the full time-to-train under hybrid DP×PP,
// applying the round's target factor and large-batch penalty exactly as
// TimeToTrain. Pipeline parallelism is the lever that keeps scaling past
// the pure-DP concurrency wall: epochs-to-target depend on the global
// batch alone, and a rank's batch now spans S chips, so a system can grow
// S× larger at a FIXED global batch — more silicon per step without
// feeding the §2.2.2 large-batch penalty or dropping below the per-rank
// utilization floor, exactly the regime the TPU-pod companion papers
// scale in. The per-rank memory bound likewise spans the rank's S chips
// (perRank ≤ S·MaxBatchPerChip).
func TimeToTrainPipeline(sys System, w WorkloadModel, round RoundConfig, globalBatch int, pp PipelineConfig) (time.Duration, error) {
	if pp.Stages < 1 || pp.Microbatches < 1 {
		return 0, fmt.Errorf("cluster: invalid pipeline config %+v", pp)
	}
	if sys.Chips%pp.Stages != 0 {
		return 0, fmt.Errorf("cluster: %d chips not divisible by %d pipeline stages", sys.Chips, pp.Stages)
	}
	dp := sys.Chips / pp.Stages
	if globalBatch%dp != 0 {
		return 0, fmt.Errorf("cluster: global batch %d not divisible by %d pipeline ranks", globalBatch, dp)
	}
	perRank := globalBatch / dp
	if perRank > pp.Stages*w.MaxBatchPerChip {
		return 0, fmt.Errorf("cluster: per-rank batch %d exceeds pipelined memory bound %d", perRank, pp.Stages*w.MaxBatchPerChip)
	}
	if perRank < w.MinBatchPerChip {
		return 0, fmt.Errorf("cluster: per-rank batch %d underutilizes the pipeline (min %d)", perRank, w.MinBatchPerChip)
	}
	if perRank < pp.Microbatches {
		return 0, fmt.Errorf("cluster: per-rank batch %d smaller than %d microbatches", perRank, pp.Microbatches)
	}
	critical := w.CritBatch * round.LargeBatchFactor
	epochs := w.BaseEpochs * (1 + float64(globalBatch)/critical) * round.TargetFactor
	steps := epochs * w.DatasetN / float64(globalBatch)
	st, err := StepTimePipeline(sys, w, round, globalBatch, pp)
	if err != nil {
		return 0, err
	}
	return time.Duration(steps * float64(st)), nil
}

// BestBatchPipeline searches the feasible batch ladder for the fastest
// pipelined time-to-train on the system (the DP×PP analogue of BestBatch).
func BestBatchPipeline(sys System, w WorkloadModel, round RoundConfig, pp PipelineConfig) (int, time.Duration, error) {
	if w.MaxBatchPerChip < 1 {
		return 0, 0, fmt.Errorf("cluster: workload %s has MaxBatchPerChip %d < 1", w.ID, w.MaxBatchPerChip)
	}
	if pp.Stages < 1 || sys.Chips%pp.Stages != 0 {
		return 0, 0, fmt.Errorf("cluster: %d chips not divisible by %d pipeline stages", sys.Chips, pp.Stages)
	}
	dp := sys.Chips / pp.Stages
	minPerRank := w.MinBatchPerChip
	if minPerRank < 1 {
		minPerRank = 1
	}
	best := time.Duration(math.MaxInt64)
	bestBatch := 0
	for perRank := minPerRank; perRank <= pp.Stages*w.MaxBatchPerChip; perRank *= 2 {
		b := perRank * dp
		t, err := TimeToTrainPipeline(sys, w, round, b, pp)
		if err != nil {
			continue
		}
		if t < best {
			best, bestBatch = t, b
		}
	}
	if bestBatch == 0 {
		return 0, 0, fmt.Errorf("cluster: no feasible pipelined batch for %d chips at S=%d", sys.Chips, pp.Stages)
	}
	return bestBatch, best, nil
}

// FigurePPRow is one row of the pipeline-axis extension of Figures 4–5:
// for a fixed system size, the fastest pure-DP configuration versus the
// fastest hybrid DP×PP configuration (depth swept in powers of two).
type FigurePPRow struct {
	Benchmark   string
	DPTime      time.Duration // best pure data-parallel time-to-train
	BestStages  int           // pipeline depth of the best hybrid config
	BestMicro   int           // microbatch count of the best hybrid config
	HybridTime  time.Duration // best hybrid DP×PP time-to-train
	Speedup     float64       // DPTime / HybridTime (1.0 when PP doesn't help)
	HybridBatch int           // global batch of the best hybrid config
}

// FigurePP sweeps pipeline depths (powers of two up to maxStages, clamped
// to divisors of the system) and microbatch counts for every benchmark
// workload on a fixed system, quantifying when the (S−1)/M bubble is worth
// paying: workloads whose best pure-DP batch sits at the memory/large-batch
// wall gain, compute-bound small-model workloads do not.
func FigurePP(round RoundConfig, chips, maxStages int) []FigurePPRow {
	chip, net := ReferenceChip(), ReferenceNetwork()
	sys := System{Name: fmt.Sprintf("sim-%dx", chips), Chips: chips, Chip: chip, Network: net}
	var rows []FigurePPRow
	for _, w := range WorkloadModels() {
		_, dpTime, err := BestBatch(sys, w, round)
		if err != nil {
			continue
		}
		row := FigurePPRow{Benchmark: w.ID, DPTime: dpTime, BestStages: 1, BestMicro: 1, HybridTime: dpTime, Speedup: 1}
		for s := 2; s <= maxStages && s <= chips; s *= 2 {
			if chips%s != 0 {
				continue
			}
			for _, m := range []int{4, 8, 16, 32} {
				pp := PipelineConfig{Stages: s, Microbatches: m}
				b, t, err := BestBatchPipeline(sys, w, round, pp)
				if err != nil {
					continue
				}
				if t < row.HybridTime {
					row.BestStages, row.BestMicro = s, m
					row.HybridTime, row.HybridBatch = t, b
					row.Speedup = float64(dpTime) / float64(t)
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

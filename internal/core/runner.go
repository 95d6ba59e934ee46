package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/mlog"
	"repro/internal/models"
)

// CompileExclusionCap is the §3.2.1 limit on excluded model-creation/
// compilation time: "we allow excluding up to 20 minutes of model creation
// time".
const CompileExclusionCap = 20 * time.Minute

// RunConfig controls one timed training session.
type RunConfig struct {
	Seed uint64
	// Clock drives timing; nil selects a fresh wall clock.
	Clock Clock
	// LogWriter streams MLLOG lines as they are produced (may be nil).
	LogWriter io.Writer
	// SystemInit simulates cluster/system initialization; its duration is
	// fully excluded from timing (§3.2.1: "not indicative of a system's
	// training capability"). Nil means none.
	SystemInit func(Clock)
	// ModelCreation simulates model creation/graph compilation; its
	// duration is excluded up to CompileExclusionCap. Nil means none.
	ModelCreation func(Clock)
	// MaxEpochs overrides the benchmark's cap when positive.
	MaxEpochs int
	// EvalEvery sets the quality-evaluation cadence in epochs (default 1,
	// the "prescribed intervals" of §4.1).
	EvalEvery int
	// Numerics, when non-empty, is the run's compute-regime tag ("f64",
	// "f32", "bf16+mp"), logged under mlog.KeyNumerics. Purely
	// informational: the regime itself is baked into the benchmark's New
	// constructor (Configure's TrainConfig.Numerics).
	Numerics string
	// Verify, when non-empty, is the verification-regime tag ("bitwise"
	// or "stat"), logged under mlog.KeyVerify.
	Verify string
	// CaptureParams requests a parameter snapshot of the trained model in
	// RunResult.FinalParams — the training→serving handoff consumed by
	// internal/serve and cmd/mlperf-serve. It requires a workload that
	// exposes its parameters (models with a Params method); otherwise
	// FinalParams stays nil.
	CaptureParams bool
	// Checkpoint enables periodic training checkpoints (internal/ckpt)
	// when Dir is non-empty. It requires a workload implementing
	// ckpt.Stateful (CaptureTrainState/RestoreTrainState); other
	// workloads run un-checkpointed.
	Checkpoint CheckpointConfig
}

// CheckpointConfig drives the runner's periodic checkpointing.
type CheckpointConfig struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every is the checkpoint cadence in epochs (default 1).
	Every int
	// Keep is the per-rank retention depth (<= 0 selects ckpt.DefaultKeep).
	Keep int
}

// RunResult is the outcome of one timed training session.
type RunResult struct {
	Benchmark string
	Seed      uint64
	// TimeToTrain is the official metric: run_stop − run_start, with the
	// §3.2.1 exclusions applied.
	TimeToTrain time.Duration
	// ExcludedInit and ExcludedCompile record untimed durations.
	ExcludedInit    time.Duration
	ExcludedCompile time.Duration
	// Epochs is the number of epochs executed.
	Epochs int
	// FinalQuality is the last evaluated quality value.
	FinalQuality float64
	// Converged reports whether the quality target was reached.
	Converged bool
	// Err is the workload's sticky training failure, if any — e.g. a
	// *transport.PeerError when a multi-process peer died mid-run. A failed
	// run never converges; its epochs stop at the failure.
	Err error
	// QualityCurve holds the per-evaluation quality values.
	QualityCurve []float64
	// FinalParams is the end-of-run parameter snapshot (only when
	// RunConfig.CaptureParams was set and the workload exposes its
	// parameters) — what a serving run restores.
	FinalParams *models.Snapshot
	// Log is the structured training-session log.
	Log *mlog.Logger
}

// Run executes one end-to-end timed training session for a benchmark,
// applying the timing rules of §3.2.1:
//
//   - system initialization is fully excluded;
//   - model creation/compilation is excluded up to 20 minutes;
//   - data reformatting happened at dataset generation (untimed);
//   - timing begins when training data is first touched and stops when the
//     validation quality reaches the target.
func Run(b Benchmark, cfg RunConfig) RunResult {
	return run(b, cfg, nil)
}

// Resume continues a run from the newest valid checkpoint in
// cfg.Checkpoint.Dir. With no checkpoint present it behaves exactly like
// Run — callers restart crashed runs with Resume unconditionally. The
// resumed trajectory is bit-identical to the uninterrupted run's: the
// checkpoint carries parameters, optimizer momenta, loss-scale state, the
// loader cursor, and auxiliary RNG positions, and the benchmark's workload
// restores them all.
func Resume(b Benchmark, cfg RunConfig) (RunResult, error) {
	if cfg.Checkpoint.Dir == "" {
		return RunResult{}, fmt.Errorf("core: Resume requires Checkpoint.Dir")
	}
	st, _, err := ckpt.Latest(cfg.Checkpoint.Dir, 0)
	if err != nil {
		return RunResult{}, err
	}
	return run(b, cfg, st), nil
}

func run(b Benchmark, cfg RunConfig, resumed *models.TrainState) RunResult {
	clock := cfg.Clock
	if clock == nil {
		clock = NewRealClock()
	}
	logger := mlog.NewLogger(cfg.LogWriter)
	ms := func(d time.Duration) int64 { return d.Milliseconds() }

	logger.Simple(ms(clock.Now()), mlog.KeyBenchmark, b.ID)
	logger.Simple(ms(clock.Now()), mlog.KeySeed, cfg.Seed)
	logger.Simple(ms(clock.Now()), mlog.KeyQualityTarget, b.Target)
	if cfg.Numerics != "" {
		logger.Simple(ms(clock.Now()), mlog.KeyNumerics, cfg.Numerics)
	}
	if cfg.Verify != "" {
		logger.Simple(ms(clock.Now()), mlog.KeyVerify, cfg.Verify)
	}

	// --- Excluded: system initialization (§3.2.1) ---
	initStart := clock.Now()
	logger.Simple(ms(initStart), mlog.KeyInitStart, "system_init")
	if cfg.SystemInit != nil {
		cfg.SystemInit(clock)
	}
	// --- Excluded up to cap: model creation / compilation (§3.2.1) ---
	compileStart := clock.Now()
	w := b.New(cfg.Seed)
	// Tear down workloads that hold resources beyond the run, on every
	// return: the engine parks persistent worker goroutines and pools
	// buffers in its arena until closed.
	if c, ok := w.(interface{ Close() }); ok {
		defer c.Close()
	}
	startEpoch := 0
	if resumed != nil {
		// Restoring a checkpoint is part of (re)creating the model, inside
		// the compile-excluded region; the timed region restarts fresh, the
		// recovery accounting lives with the supervisor (KeyRecoveryWallMS).
		s, ok := w.(ckpt.Stateful)
		if !ok {
			return RunResult{Benchmark: b.ID, Seed: cfg.Seed, Log: logger,
				Err: fmt.Errorf("core: workload %T cannot restore a checkpoint", w)}
		}
		if err := s.RestoreTrainState(resumed); err != nil {
			return RunResult{Benchmark: b.ID, Seed: cfg.Seed, Log: logger, Err: err}
		}
		startEpoch = resumed.Epoch
		logger.Simple(ms(clock.Now()), mlog.KeyResumeFromStep, resumed.Step)
	}
	if cfg.ModelCreation != nil {
		cfg.ModelCreation(clock)
	}
	compileEnd := clock.Now()
	logger.Simple(ms(compileEnd), mlog.KeyInitStop, "ready")

	excludedInit := compileStart - initStart
	compileDur := compileEnd - compileStart
	excludedCompile := compileDur
	if excludedCompile > CompileExclusionCap {
		excludedCompile = CompileExclusionCap
	}
	// Any compilation beyond the cap counts against the run clock.
	penalty := compileDur - excludedCompile

	// --- Timed region: begins at first data touch ---
	runStart := clock.Now()
	logger.Simple(ms(runStart), mlog.KeyRunStart, b.ID)

	maxEpochs := b.MaxEpochs
	if cfg.MaxEpochs > 0 {
		maxEpochs = cfg.MaxEpochs
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}

	res := RunResult{Benchmark: b.ID, Seed: cfg.Seed, ExcludedInit: excludedInit, ExcludedCompile: excludedCompile, Log: logger}

	// Periodic checkpointing: only for workloads whose full training state
	// round-trips (ckpt.Stateful), mirroring the CaptureParams capability
	// pattern.
	var ckptW *ckpt.Writer
	ckptEvery := cfg.Checkpoint.Every
	if ckptEvery <= 0 {
		ckptEvery = 1
	}
	if cfg.Checkpoint.Dir != "" {
		if _, ok := w.(ckpt.Stateful); ok {
			cw, err := ckpt.NewWriter(cfg.Checkpoint.Dir, cfg.Checkpoint.Keep)
			if err != nil {
				res.Err = err
				return res
			}
			ckptW = cw
		}
	}

	for epoch := startEpoch; epoch < maxEpochs; epoch++ {
		logger.Log(mlog.Event{TimeMS: ms(clock.Now()), Key: mlog.KeyEpochStart, Epoch: epoch})
		loss := w.TrainEpoch()
		logger.Log(mlog.Event{TimeMS: ms(clock.Now()), Key: mlog.KeyEpochStop, Epoch: epoch, Value: loss})
		res.Epochs = epoch + 1
		// Engine-backed workloads fail sticky instead of panicking when a
		// peer dies or straggles; surface that as a run-level error rather
		// than evaluating a half-trained model.
		if f, ok := w.(interface{ Err() error }); ok {
			if err := f.Err(); err != nil {
				res.Err = err
				break
			}
		}
		if ckptW != nil && (epoch+1)%ckptEvery == 0 {
			st := w.(ckpt.Stateful).CaptureTrainState()
			if _, digest, err := ckptW.Write(st, 0); err != nil {
				res.Err = err
				break
			} else {
				logger.Simple(ms(clock.Now()), mlog.KeyCheckpointStep, st.Step)
				logger.Simple(ms(clock.Now()), mlog.KeyCheckpointDigest, digest)
			}
		}
		if (epoch+1)%evalEvery != 0 && epoch+1 < maxEpochs {
			continue
		}
		logger.Log(mlog.Event{TimeMS: ms(clock.Now()), Key: mlog.KeyEvalStart, Epoch: epoch})
		q := w.Evaluate()
		logger.EvalAccuracy(ms(clock.Now()), epoch, q)
		logger.Log(mlog.Event{TimeMS: ms(clock.Now()), Key: mlog.KeyEvalStop, Epoch: epoch})
		res.FinalQuality = q
		res.QualityCurve = append(res.QualityCurve, q)
		if q >= b.Target {
			res.Converged = true
			break
		}
	}

	runStop := clock.Now()
	status := "aborted"
	if res.Converged {
		status = "success"
	}
	if res.Err != nil {
		status = "failed"
	}
	logger.Simple(ms(runStop), mlog.KeyRunStop, status)
	logger.Simple(ms(runStop), mlog.KeyStatus, status)
	res.TimeToTrain = runStop - runStart + penalty
	// Capture the trained parameters before teardown (snapshotting a
	// failed run's half-trained state is allowed — the digest tells
	// consumers exactly what they got).
	if cfg.CaptureParams {
		if ps, ok := w.(interface{ Params() []*autograd.Param }); ok {
			res.FinalParams = models.TakeSnapshot(b.ID, ps.Params())
			logger.Simple(ms(runStop), mlog.KeySnapshotDigest, res.FinalParams.Digest())
		}
	}
	return res
}

// String summarizes a run result.
func (r RunResult) String() string {
	conv := "DNF"
	if r.Converged {
		conv = "converged"
	}
	if r.Err != nil {
		return fmt.Sprintf("%s seed=%d FAILED epochs=%d err=%v",
			r.Benchmark, r.Seed, r.Epochs, r.Err)
	}
	return fmt.Sprintf("%s seed=%d %s epochs=%d quality=%.4f ttt=%s",
		r.Benchmark, r.Seed, conv, r.Epochs, r.FinalQuality, r.TimeToTrain.Round(time.Millisecond))
}

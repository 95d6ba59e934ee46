package grid

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ckpt"
	"repro/internal/clock"
	"repro/internal/mlog"
	"repro/internal/transport"
)

// restartBackoff is the sleep before the first respawn, doubled per
// consecutive restart up to 8x: the recovering checkpoint directory and
// ports get breathing room, and a crash loop cannot spin hot.
const restartBackoff = 250 * time.Millisecond

// SuperviseOptions parameterizes Supervise.
type SuperviseOptions struct {
	// Start is forwarded to every generation's Start call.
	Start StartOptions
	// MaxRestarts bounds how many times a failed generation is respawned
	// before the run is abandoned (default 3).
	MaxRestarts int
	// Log, when non-nil, receives the recovery MLLOG stream: resume
	// points, restart counts, recovery wall time, and the final
	// checkpoint's step and digest.
	Log *mlog.Logger
}

// SuperviseResult is a completed supervised run.
type SuperviseResult struct {
	// Results are the final generation's per-rank worker reports.
	Results []*transport.WorkerResult
	// Restarts is how many generations died and were respawned.
	Restarts int
}

// Supervise runs the spec's grid to completion across worker failures:
// each generation is a full Start (fresh rendezvous coordinator, fresh
// worker processes); when a generation dies — a crashed worker, a dropped
// connection, a poisoned mesh — the cluster is torn down and the next
// generation is launched resuming from the newest complete checkpoint
// set, under exponential backoff and a bounded restart budget. Because
// checkpoints restore the exact step state and the trajectory-digest
// accumulator rides inside them, a supervised run that loses workers
// mid-flight still reports the bit-identical final digests of a run that
// never failed.
func Supervise(spec Spec, opts SuperviseOptions) (*SuperviseResult, error) {
	spec = spec.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.CkptDir == "" || spec.CkptEvery <= 0 {
		return nil, fmt.Errorf("grid: Supervise needs CkptDir and CkptEvery — without checkpoints a respawned generation restarts from scratch")
	}
	maxRestarts := opts.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}

	clk := clock.NewReal()
	log := opts.Log
	if log == nil {
		log = mlog.NewLogger(io.Discard)
	}

	restarts := 0
	sleep := restartBackoff
	var downAt time.Duration
	for gen := 0; ; gen++ {
		s := spec
		s.Gen = gen
		s.Resume = spec.Resume || gen > 0
		if s.Resume {
			if step, ok, err := ckpt.LatestComplete(s.CkptDir, s.World()); err == nil && ok {
				log.Simple(clk.Now().Milliseconds(), mlog.KeyResumeFromStep, step)
			}
		}
		c, err := Start(s, opts.Start)
		if err != nil {
			return nil, fmt.Errorf("grid: generation %d: %w", gen, err)
		}
		if gen > 0 {
			// Recovery wall time: from the moment the previous generation's
			// failure surfaced to the respawned grid being live.
			log.Simple(clk.Now().Milliseconds(), mlog.KeyRecoveryWallMS, (clk.Now() - downAt).Milliseconds())
		}
		results, werr := c.Wait()
		if werr == nil {
			log.Simple(clk.Now().Milliseconds(), mlog.KeyWorkerRestarts, restarts)
			if step, ok, err := ckpt.LatestComplete(s.CkptDir, s.World()); err == nil && ok {
				log.Simple(clk.Now().Milliseconds(), mlog.KeyCheckpointStep, step)
				if st, err := ckpt.LoadAt(s.CkptDir, step, 0); err == nil {
					if digest, err := ckpt.Digest(st); err == nil {
						log.Simple(clk.Now().Milliseconds(), mlog.KeyCheckpointDigest, digest)
					}
				}
			}
			return &SuperviseResult{Results: results, Restarts: restarts}, nil
		}
		downAt = clk.Now()
		if restarts >= maxRestarts {
			return nil, fmt.Errorf("grid: run dead after %d restarts, last generation %d: %w", restarts, gen, werr)
		}
		restarts++
		time.Sleep(sleep)
		if sleep < 8*restartBackoff {
			sleep *= 2
		}
	}
}

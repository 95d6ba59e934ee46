package dist

// Checkpoint capture/restore for the data-parallel engine. The synchronous
// invariant — every replica applies the identical aggregated gradient, so
// replicas and their optimizer states are bit-identical forever — makes
// the engine's checkpoint exactly one replica wide: capture the first
// locally-hosted replica, restore into every locally-hosted one. The
// per-(step, microshard) RNG streams need no entry (pure functions of
// (seed, step, m); the Step counter restores them), and in multi-process
// shard mode every rank's loader replays the same sequence from the same
// state, so each rank's checkpoint is self-contained.

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/opt"
)

// ckptBenchmark labels engine snapshots inside checkpoints.
const distCkptLabel = "dist-engine"

// CaptureTrainState snapshots the engine's full training position:
// parameters and optimizer state of the (representative) first owned
// replica, the loss-scale position in mixed regimes, the loader cursor,
// and the step/epoch counters.
func (e *Engine) CaptureTrainState() *models.TrainState {
	w0 := e.owned[0]
	st := &models.TrainState{
		Step:   e.step,
		Epoch:  e.epoch,
		Params: models.TakeSnapshot(distCkptLabel, e.params[w0]),
	}
	ls := e.loader.State()
	st.Loader = &ls
	if o, ok := e.replicas[w0].Opt.(opt.Stateful); ok {
		st.Opts = []opt.State{o.CaptureState()}
	}
	if mp := e.mps[w0]; mp != nil {
		s := mp.State()
		st.MP = &s
	}
	return st
}

// RestoreTrainState installs a state captured by CaptureTrainState on a
// freshly built engine of the same configuration, restoring every
// locally-hosted replica to the captured position. Subsequent steps are
// bit-identical to the capturing engine's.
func (e *Engine) RestoreTrainState(st *models.TrainState) error {
	if st.Params == nil {
		return fmt.Errorf("dist: train state has no parameter snapshot")
	}
	if len(st.Opts) != 1 {
		return fmt.Errorf("dist: train state has %d optimizer states, engine wants 1", len(st.Opts))
	}
	if st.Loader == nil {
		return fmt.Errorf("dist: train state has no loader position")
	}
	// Check every replica before writing any: a refused state leaves the
	// engine as it was.
	optims := make([]opt.Stateful, len(e.owned))
	for i, w := range e.owned {
		if err := st.Params.Check(e.params[w]); err != nil {
			return fmt.Errorf("dist: replica %d: %w", w, err)
		}
		o, ok := e.replicas[w].Opt.(opt.Stateful)
		if !ok {
			return fmt.Errorf("dist: replica %d optimizer %T cannot restore state", w, e.replicas[w].Opt)
		}
		if err := o.CheckState(st.Opts[0]); err != nil {
			return fmt.Errorf("dist: replica %d: %w", w, err)
		}
		if (st.MP != nil) != (e.mps[w] != nil) {
			return fmt.Errorf("dist: train state mixed-precision presence %v != engine %v", st.MP != nil, e.mps[w] != nil)
		}
		optims[i] = o
	}
	for i, w := range e.owned {
		if err := st.Params.Restore(e.params[w]); err != nil {
			return fmt.Errorf("dist: replica %d: %w", w, err)
		}
		if err := optims[i].RestoreState(st.Opts[0]); err != nil {
			return fmt.Errorf("dist: replica %d: %w", w, err)
		}
		if st.MP != nil {
			e.mps[w].SetState(*st.MP)
		}
	}
	if err := e.loader.SetState(*st.Loader); err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	e.step = st.Step
	e.epoch = st.Epoch
	return nil
}

package pipeline

// Checkpoint capture/restore for the pipeline-parallel engine. The hybrid
// data-parallel dimension keeps stage replicas bit-identical across
// workers (identical aggregated gradients per stage group), so the
// checkpoint is one worker wide: capture the first hosted worker's cells in
// stage order (Engine.cover) — exactly the Params() gather — plus one
// optimizer state per covered stage, and restore into every hosted replica
// of each. An engine that hosts the whole grid covers the model; a shard
// covers its one (worker, stage) cell, the per-rank files jointly cover the
// model, and each rank restores from its own. Per-(step, microbatch) RNG
// streams are pure functions of (seed, step, m) — the Step counter
// restores them, and a state that carries a stream of its own is refused.
// The mixed regime (one stage only) adds the covered cell's loss-scale
// position, restored into every hosted replica.

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/models"
	"repro/internal/opt"
)

// pipeCkptLabel labels engine snapshots inside checkpoints, at every grid
// shape. Restore never reads it.
const pipeCkptLabel = "pipeline-engine"

// CaptureTrainState snapshots the engine's full training position: the
// covered stage shards' parameters (concatenated, matching Params()), one
// optimizer state per covered stage, the loss-scale position in the mixed
// regime, the loader cursor, and the step/epoch counters.
func (e *Engine) CaptureTrainState() *models.TrainState {
	st := &models.TrainState{
		Step:   e.step,
		Epoch:  e.epoch,
		Params: models.TakeSnapshot(pipeCkptLabel, e.Params()),
	}
	ls := e.loader.State()
	st.Loader = &ls
	for _, rt := range e.cover {
		if o, ok := rt.rep.Opt.(opt.Stateful); ok {
			st.Opts = append(st.Opts, o.CaptureState())
		}
		if rt.mp != nil {
			s := rt.mp.State()
			st.MP = &s
		}
	}
	return st
}

// RestoreTrainState installs a state captured by CaptureTrainState on a
// freshly built engine of the same configuration, restoring every hosted
// replica of every covered stage. Subsequent steps are bit-identical to
// the capturing engine's.
func (e *Engine) RestoreTrainState(st *models.TrainState) error {
	if st.Params == nil {
		return fmt.Errorf("pipeline: train state has no parameter snapshot")
	}
	if len(st.Opts) != len(e.cover) {
		return fmt.Errorf("pipeline: train state has %d optimizer states, engine wants %d", len(st.Opts), len(e.cover))
	}
	if st.Loader == nil {
		return fmt.Errorf("pipeline: train state has no loader position")
	}
	if mixed := e.owned[0].mp != nil; (st.MP != nil) != mixed {
		return fmt.Errorf("pipeline: train state mixed-precision presence %v != engine %v", st.MP != nil, mixed)
	}
	// The engine's streams are functions of (seed, step, microbatch) and
	// are never saved, so a saved stream is another loop's position (the
	// serial NCF loop's negative sampling): resuming would leave its run.
	if len(st.RNGs) > 0 {
		return fmt.Errorf("pipeline: train state carries RNG stream %q, which the engine does not own: a checkpoint of another training loop", st.RNGs[0].Label)
	}

	// What the state writes into. Parameters: the snapshot is the covered
	// cells' stage-order concatenation, which matches every hosted worker's
	// own (Engine.replicas) name-for-name and shape-for-shape. Optimizers:
	// covered stage i's state goes into every hosted replica of that stage.
	optims := make([][]opt.Stateful, len(e.cover))
	for i, rt := range e.cover {
		for k := 0; k < e.K; k++ {
			target := e.rts[k][rt.s]
			if target == nil {
				continue
			}
			o, ok := target.rep.Opt.(opt.Stateful)
			if !ok {
				return fmt.Errorf("pipeline: stage %d worker %d optimizer %T cannot restore state", rt.s, k, target.rep.Opt)
			}
			optims[i] = append(optims[i], o)
		}
	}

	// Check all of it before writing any of it: a state refused for its
	// last optimizer slot must leave the first parameter as it was, so the
	// supervisor can fall back to an older set on the same engine.
	each := func(params func([]*autograd.Param) error, state func(opt.Stateful, opt.State) error) error {
		for _, cat := range e.replicas {
			if err := params(cat); err != nil {
				return fmt.Errorf("pipeline: %w", err)
			}
		}
		for i, os := range optims {
			for _, o := range os {
				if err := state(o, st.Opts[i]); err != nil {
					return fmt.Errorf("pipeline: stage %d: %w", e.cover[i].s, err)
				}
			}
		}
		return nil
	}
	if err := each(st.Params.Check, opt.Stateful.CheckState); err != nil {
		return err
	}
	// The loader validates its position before it takes it: the last thing
	// that can refuse, and the first write.
	if err := e.loader.SetState(*st.Loader); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if err := each(st.Params.Restore, opt.Stateful.RestoreState); err != nil {
		return err
	}
	if st.MP != nil {
		for _, rt := range e.owned {
			rt.mp.SetState(*st.MP)
		}
	}
	e.step = st.Step
	e.epoch = st.Epoch
	return nil
}

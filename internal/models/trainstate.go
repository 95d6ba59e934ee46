package models

// TrainState is the full mid-run training state of an engine, or of the
// one cell of it a shard hosts — the in-memory form of a training
// checkpoint. It extends the parameter Snapshot (the training→serving
// handoff) with everything else a bit-identical resume needs: optimizer
// state (momenta and the ApplySchedule position, which is just Step), the
// mixed-precision trainer's loss-scale position, the loader's permutation
// cursor, and the step/epoch counters. internal/ckpt serializes it; the
// internal/pipeline engine implements CaptureTrainState/RestoreTrainState
// over it.
//
// The engine's per-(step, microbatch) RNG streams need no entry here: they
// are pure functions of (seed, step, microbatch), reseeded every step, so
// the Step counter alone restores them.

import (
	"repro/internal/data"
	"repro/internal/opt"
	"repro/internal/precision"
	"repro/internal/tensor"
)

// RNGEntry is one labeled auxiliary RNG stream position. Nothing writes
// one any more: the serial NCF loop of earlier versions saved its
// negative-sampling stream, and the engine refuses a state that carries a
// stream by naming it.
type RNGEntry struct {
	Label string
	State tensor.RNGState
}

// MetaEntry is one key/value pair of harness state riding along with the
// training state (e.g. the grid worker's trajectory-digest accumulator).
// Entries are kept sorted by key so serialization is deterministic.
type MetaEntry struct {
	Key, Value string
}

// TrainState bundles one checkpointable training position.
type TrainState struct {
	// Step and Epoch are the optimizer-step and epoch counters at capture.
	Step, Epoch int
	// Params is the parameter snapshot (never nil in a valid state).
	Params *Snapshot
	// Opts holds the optimizer states: one per covered stage (replicas are
	// bit-identical), so one for the one-stage engine.
	Opts []opt.State
	// MP is the mixed-precision trainer position (nil in non-mixed runs).
	MP *precision.MPState
	// Loader is the data-traversal position (nil for engines in shard
	// mode follower roles; present wherever a loader is driven).
	Loader *data.LoaderState
	// RNGs are labeled auxiliary stream positions (see RNGEntry).
	RNGs []RNGEntry
	// Meta carries harness key/value state, sorted by key.
	Meta []MetaEntry
}

// MetaValue returns the value for key, and whether it is present.
func (st *TrainState) MetaValue(key string) (string, bool) {
	for _, m := range st.Meta {
		if m.Key == key {
			return m.Value, true
		}
	}
	return "", false
}

// SetMeta inserts or replaces a meta entry, keeping Meta sorted by key.
func (st *TrainState) SetMeta(key, value string) {
	for i := range st.Meta {
		if st.Meta[i].Key == key {
			st.Meta[i].Value = value
			return
		}
		if st.Meta[i].Key > key {
			st.Meta = append(st.Meta[:i], append([]MetaEntry{{Key: key, Value: value}}, st.Meta[i:]...)...)
			return
		}
	}
	st.Meta = append(st.Meta, MetaEntry{Key: key, Value: value})
}

package opt

// Optimizer state capture/restore: the checkpoint half of the momenta.
// An optimizer's internal state (SGD/LARS velocity, Adam first and second
// moments plus the bias-correction step counter) lives in maps keyed by
// parameter pointer; a State flattens it into parameter-list order so
// internal/ckpt can serialize it and a fresh optimizer over a fresh (but
// architecturally identical) parameter list can restore it bit-exactly.

import (
	"fmt"

	"repro/internal/autograd"
)

// State is a serializable snapshot of an optimizer's internal state.
// Slots holds per-parameter state vectors in Params order; the layout per
// Kind is documented on each optimizer's CaptureState.
type State struct {
	// Kind identifies the optimizer family ("sgd", "adam", "lars").
	Kind string
	// LR is the learning rate at capture time.
	LR float64
	// T is Adam's bias-correction step counter (0 for the others).
	T int
	// Slots are the state vectors, one group per parameter in Params
	// order: 1 slot each for sgd/lars (velocity), 2 for adam (m then v).
	Slots [][]float64
}

// Stateful is an Optimizer whose internal state can round-trip through a
// State — what a training checkpoint requires of the optimizer. SGD,
// Adam, and LARS all implement it.
type Stateful interface {
	Optimizer
	// CaptureState snapshots the optimizer's internal state. The copy is
	// decoupled from further Steps.
	CaptureState() State
	// CheckState reports whether RestoreState would accept the state (the
	// optimizer family, and one slot group per parameter, shape for
	// shape) without changing anything, so an owner of several optimizers
	// can validate a whole checkpoint before restoring any of it.
	CheckState(State) error
	// RestoreState installs a captured state; subsequent Steps are
	// bit-identical to the capturing optimizer's. The receiving optimizer
	// must drive the same parameter list shape-for-shape. A state that
	// fails CheckState is refused with the optimizer unchanged.
	RestoreState(State) error
}

var (
	_ Stateful = (*SGD)(nil)
	_ Stateful = (*Adam)(nil)
	_ Stateful = (*LARS)(nil)
)

// slotOf copies a state vector for p out of m, materializing the zero
// vector lazy-initialized optimizers haven't allocated yet — an explicit
// zero slot and an absent one step identically, but only the explicit form
// serializes deterministically.
func slotOf(m map[*autograd.Param][]float64, p *autograd.Param) []float64 {
	if v := m[p]; v != nil {
		return append([]float64(nil), v...)
	}
	return make([]float64, p.Value.Size())
}

// checkSlots validates a state against an optimizer of the given kind
// with `of` slots per parameter.
func checkSlots(kind string, st State, params []*autograd.Param, of int) error {
	if st.Kind != kind {
		return fmt.Errorf("opt: restoring %q state into %s", st.Kind, kind)
	}
	if len(st.Slots) != of*len(params) {
		return fmt.Errorf("opt: %s state has %d slots, want %d (%d per parameter)", kind, len(st.Slots), of*len(params), of)
	}
	for i, s := range st.Slots {
		if p := params[i/of]; len(s) != p.Value.Size() {
			return fmt.Errorf("opt: %s state slot %d has %d values, parameter %q has %d", kind, i, len(s), p.Name, p.Value.Size())
		}
	}
	return nil
}

// installSlots copies slot `group` of every parameter's `of` checked slots
// into m.
func installSlots(m map[*autograd.Param][]float64, params []*autograd.Param, slots [][]float64, group, of int) {
	for i, p := range params {
		m[p] = append([]float64(nil), slots[i*of+group]...)
	}
}

// CaptureState implements Stateful: Kind "sgd", one velocity slot per
// parameter.
func (s *SGD) CaptureState() State {
	st := State{Kind: "sgd", LR: s.lr}
	for _, p := range s.Params {
		st.Slots = append(st.Slots, slotOf(s.velocity, p))
	}
	return st
}

// CheckState implements Stateful.
func (s *SGD) CheckState(st State) error { return checkSlots("sgd", st, s.Params, 1) }

// RestoreState implements Stateful.
func (s *SGD) RestoreState(st State) error {
	if err := s.CheckState(st); err != nil {
		return err
	}
	installSlots(s.velocity, s.Params, st.Slots, 0, 1)
	s.lr = st.LR
	return nil
}

// CaptureState implements Stateful: Kind "adam", two slots per parameter
// (first moment m, then second moment v), T = the step counter.
func (a *Adam) CaptureState() State {
	st := State{Kind: "adam", LR: a.lr, T: a.t}
	for _, p := range a.Params {
		st.Slots = append(st.Slots, slotOf(a.m, p), slotOf(a.v, p))
	}
	return st
}

// CheckState implements Stateful.
func (a *Adam) CheckState(st State) error { return checkSlots("adam", st, a.Params, 2) }

// RestoreState implements Stateful.
func (a *Adam) RestoreState(st State) error {
	if err := a.CheckState(st); err != nil {
		return err
	}
	installSlots(a.m, a.Params, st.Slots, 0, 2)
	installSlots(a.v, a.Params, st.Slots, 1, 2)
	a.lr = st.LR
	a.t = st.T
	return nil
}

// CaptureState implements Stateful: Kind "lars", one velocity slot per
// parameter.
func (l *LARS) CaptureState() State {
	st := State{Kind: "lars", LR: l.lr}
	for _, p := range l.Params {
		st.Slots = append(st.Slots, slotOf(l.velocity, p))
	}
	return st
}

// CheckState implements Stateful.
func (l *LARS) CheckState(st State) error { return checkSlots("lars", st, l.Params, 1) }

// RestoreState implements Stateful.
func (l *LARS) RestoreState(st State) error {
	if err := l.CheckState(st); err != nil {
		return err
	}
	installSlots(l.velocity, l.Params, st.Slots, 0, 1)
	l.lr = st.LR
	return nil
}

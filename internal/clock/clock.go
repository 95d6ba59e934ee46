// Package clock is the repo's single source of wall time. The Clock
// interface abstracts the run clock so the timing rules of §3.2.1 can be
// enforced and tested: the real clock drives actual training, while the
// tick and simulated clocks drive rule tests, the cluster-scale studies,
// and deterministic step-time accounting in the training engine.
//
// Everything above this package takes a Clock; the detlint analyzer
// (internal/analysis) mechanically forbids time.Now outside this package,
// so no training-path code can read the wall clock behind the
// abstraction's back and break run-to-run determinism.
package clock

import "time"

// Clock abstracts the run clock.
type Clock interface {
	// Now returns elapsed time since the clock's origin.
	Now() time.Duration
}

// After returns the wall-clock instant d from now — the absolute-deadline
// form net.Conn's Set*Deadline methods require. It lives here because
// detlint forbids time.Now outside this package: transport deadline math
// routes through After, keeping the wall clock out of engine code while
// still letting the TCP backend arm real I/O deadlines (deadlines bound
// failure detection; they never feed results or timing metrics).
func After(d time.Duration) time.Time { return time.Now().Add(d) }

// Real measures wall time from its creation.
type Real struct{ start time.Time }

// NewReal starts a wall clock.
func NewReal() *Real { return &Real{start: time.Now()} }

// Now implements Clock.
func (c *Real) Now() time.Duration { return time.Since(c.start) }

// Tick advances by a fixed tick on every Now call. Because a run reads
// the clock a schedule-independent number of times, Tick makes
// TimeToTrain a pure function of the run's work — the deterministic
// timing source the concurrent run-set executor is tested against.
type Tick struct {
	t    time.Duration
	tick time.Duration
}

// NewTick returns a clock advancing by tick per reading.
func NewTick(tick time.Duration) *Tick { return &Tick{tick: tick} }

// Now implements Clock.
func (c *Tick) Now() time.Duration {
	c.t += c.tick
	return c.t
}

// Sim is a manually advanced clock. The zero value reads zero.
type Sim struct{ t time.Duration }

// Now implements Clock.
func (c *Sim) Now() time.Duration { return c.t }

// Advance moves the clock forward.
func (c *Sim) Advance(d time.Duration) { c.t += d }

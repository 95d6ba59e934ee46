// Package chaos is the seeded fault-injection layer: every fault a test
// or smoke run injects is fixed by its inputs, the PoissonSchedule
// discipline of internal/serve applied to failure testing. Two runs with
// the same seed and config inject the same faults at the same points, so
// chaos runs are as reproducible as the training they disturb, and a
// failure found under chaos can be replayed exactly.
//
// The package has two halves:
//
//   - Plan: the crash schedule, a pure function of its seed. Crash(gen)
//     says which rank of generation gen dies at which step (the grid
//     supervisor's test diet).
//   - Wrap/ConnFaults: the wire faults, a net.Conn wrapper injecting
//     frame corruption (the CRC-32C check must catch it), connection
//     drops, and per-write delays — installed through
//     transport.TCPOptions.WrapConn.
package chaos

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/tensor"
)

// PlanConfig shapes a fault plan.
type PlanConfig struct {
	// World is the grid's rank count (crash victims are drawn from it).
	World int
	// Steps is the planned optimizer-step count of one run; crash steps
	// are drawn from its second half so at least one checkpoint boundary
	// precedes every crash.
	Steps int
	// Crashes is how many generations get a crash: generations
	// 0..Crashes-1 each lose one worker, later generations run clean (the
	// supervised run therefore terminates after exactly Crashes restarts).
	Crashes int
}

// CrashPoint is one scheduled worker crash: rank Rank exits hard when its
// step counter reaches Step.
type CrashPoint struct {
	Rank, Step int
}

// Plan is a materialized fault schedule — a pure function of (seed,
// config): construction draws every decision up front from a private
// tensor.RNG stream, so equal inputs give equal plans.
type Plan struct {
	crashes []CrashPoint
}

// NewPlan derives the fault schedule for one run family.
func NewPlan(seed uint64, cfg PlanConfig) *Plan {
	if cfg.World <= 0 && cfg.Crashes > 0 {
		panic(fmt.Sprintf("chaos: plan with %d crashes over world %d", cfg.Crashes, cfg.World))
	}
	p := &Plan{}
	rng := tensor.NewRNG(seed).Split(0xC4A05)
	for g := 0; g < cfg.Crashes; g++ {
		// Second-half steps only: a checkpoint cadence that divides
		// Steps/2 is guaranteed a sealed checkpoint before the crash.
		lo := cfg.Steps / 2
		if lo < 1 {
			lo = 1
		}
		step := lo
		if cfg.Steps > lo {
			step = lo + rng.Intn(cfg.Steps-lo)
		}
		p.crashes = append(p.crashes, CrashPoint{Rank: rng.Intn(cfg.World), Step: step})
	}
	return p
}

// Crash returns generation gen's scheduled crash. ok is false for
// generations past the configured crash budget — those run to completion.
func (p *Plan) Crash(gen int) (CrashPoint, bool) {
	if gen < 0 || gen >= len(p.crashes) {
		return CrashPoint{}, false
	}
	return p.crashes[gen], true
}

// ConnFaults configures one wrapped connection's wire-level faults. The
// zero value injects nothing.
type ConnFaults struct {
	// CorruptWrite, when positive, flips one byte of the CorruptWrite-th
	// Write (1-based). The sender's frame CRC was computed before the
	// flip, so the receiver MUST surface transport.ErrChecksum.
	CorruptWrite int
	// CorruptOffset is the byte offset flipped within that write, clamped
	// to the write's length. Offsets past the 13-byte frame header land
	// in the payload (the CRC-covered region).
	CorruptOffset int
	// DropAfter, when positive, hard-closes the connection after that
	// many Writes have completed — a mid-run connection drop.
	DropAfter int
	// DelayWrite, when positive, sleeps before every Write — a straggler
	// link.
	DelayWrite time.Duration
}

// Wrap layers fault injection over a connection. The wrapper never
// mutates caller buffers (corruption happens on a private copy) and is
// safe for the one-writer/one-reader discipline of transport.TCPMesh.
func Wrap(c net.Conn, f ConnFaults) net.Conn {
	return &conn{Conn: c, f: f}
}

type conn struct {
	net.Conn
	f       ConnFaults
	mu      sync.Mutex
	writes  int
	scratch []byte
}

func (c *conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f.DelayWrite > 0 {
		time.Sleep(c.f.DelayWrite)
	}
	if c.f.DropAfter > 0 && c.writes >= c.f.DropAfter {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	c.writes++
	if c.writes == c.f.CorruptWrite {
		c.scratch = append(c.scratch[:0], b...)
		off := c.f.CorruptOffset
		if off >= len(c.scratch) {
			off = len(c.scratch) - 1
		}
		if off >= 0 && len(c.scratch) > 0 {
			c.scratch[off] ^= 0x20
		}
		return c.Conn.Write(c.scratch)
	}
	return c.Conn.Write(b)
}

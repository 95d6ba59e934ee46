// Package chaos is the seeded fault-injection layer: every fault a test
// or smoke run injects is fixed by its inputs, the PoissonSchedule
// discipline of internal/serve applied to failure testing. Two runs with
// the same seed and config inject the same faults at the same points, so
// chaos runs are as reproducible as the training they disturb, and a
// failure found under chaos can be replayed exactly.
//
// The package has two halves:
//
//   - Fault: one worker failure (an Exit or a Hang) at a (generation,
//     rank, step). A grid run's whole failure diet is one []Fault in
//     grid.Spec.Faults; Crashes draws a seeded list of Exit faults, and
//     Due is the worker's one lookup.
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

// Kind is what a Fault does to its rank.
type Kind string

const (
	// Exit ends the rank's process mid-run: no report, no checkpoint
	// flush, indistinguishable from a real death as far as the rendezvous
	// is concerned.
	Exit Kind = "exit"
	// Hang stops the rank stepping while its rendezvous heartbeats go on:
	// a live-but-stuck straggler that only a bound on the mesh's receives
	// can catch.
	Hang Kind = "hang"
)

// Fault is one injected worker failure: in restart generation Gen, rank
// Rank does Kind once its step counter reaches Step.
type Fault struct {
	Gen  int  `json:"gen"`
	Rank int  `json:"rank"`
	Step int  `json:"step"`
	Kind Kind `json:"kind"`
}

// Crashes is the seeded crash schedule: one Exit fault in each of
// generations 0..n-1 of a run over world ranks and steps optimizer steps,
// so a supervised run ends after exactly n restarts. It is a pure function
// of its inputs: every decision is drawn up front from a private
// tensor.RNG stream.
func Crashes(seed uint64, world, steps, n int) []Fault {
	if world <= 0 && n > 0 {
		panic(fmt.Sprintf("chaos: %d crashes over world %d", n, world))
	}
	var faults []Fault
	rng := tensor.NewRNG(seed).Split(0xC4A05)
	for g := 0; g < n; g++ {
		// Second-half steps only: a checkpoint cadence that divides
		// steps/2 is guaranteed a sealed checkpoint before the crash.
		lo := max(steps/2, 1)
		step := lo
		if steps > lo {
			step = lo + rng.Intn(steps-lo)
		}
		faults = append(faults, Fault{Gen: g, Rank: rng.Intn(world), Step: step, Kind: Exit})
	}
	return faults
}

// Due returns the kind of the first fault in faults that rank rank of
// generation gen has reached at step, or "" when it has reached none.
func Due(faults []Fault, gen, rank, step int) Kind {
	for _, f := range faults {
		if f.Gen == gen && f.Rank == rank && step >= f.Step {
			return f.Kind
		}
	}
	return ""
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

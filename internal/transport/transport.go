// Package transport abstracts the communication substrate under the
// training engine: ordered, reliable point-to-point transfer of float64
// chunks between the members of a fixed-size group, and a way to declare a
// member dead. Two backends implement the Mesh contract:
//
//   - the in-process channel backend (LocalFabric) — the bit-identity oracle
//     every other backend is measured against, and the engine default: one
//     fabric of S·K endpoints under the whole grid;
//   - a TCP backend (DialTCPMesh) on stdlib net with length-prefixed CRC
//     frames, connection reuse, and configurable deadlines, so a DP×PP grid
//     can run as K·S separate OS processes (see internal/grid and
//     cmd/mlperf-worker).
//
// Under both sits one lane table (lanes.go): the lane map, each rank's down
// cause, lanes born poisoned after a failure, the poison sweep and the tail
// of Recv are written once, and a backend says only whether its consumers
// poll before they park. The worker barrier belongs to the rendezvous
// control plane (Session.Barrier), not to a Mesh; so does failure
// detection, a read deadline on each worker's control connection.
//
// Because a message copy preserves float64 bits exactly and the engine fixes
// its reduction order independently of the transport, any conforming
// Mesh produces bit-identical parameter trajectories — the determinism
// contract (§3.3) that lets the TCP backend be validated against the
// in-process one, which is itself validated against the serial baseline.
//
// Messages within one (sender, receiver, stream) triple are delivered in
// send order; distinct streams multiplex independent traffic (e.g. the
// ring's reduce and gather legs, the pipeline's forward and backward
// boundaries) over one connection without interference. Failure surfaces
// as *PeerError values wrapping the typed sentinel causes (ErrClosed,
// ErrStraggler, ErrChecksum, ErrFrameTooLarge, ErrBadFrame) — never as a
// hang: a peer death poisons every queue touching that peer and wakes all
// blocked receivers.
package transport

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/clock"
)

// Mesh is a fixed-size communication group seen from one member. Send and
// Recv must be called from a single goroutine per endpoint (each engine
// runtime owns its endpoint); Fail and Close are safe from any goroutine.
// These six calls are everything an engine, a ring or a launcher makes.
type Mesh interface {
	// Rank returns this endpoint's member index in [0, World).
	Rank() int
	// World returns the group size.
	World() int
	// Send transfers a copy of data to member `to` on the given stream.
	// It does not block on the receiver (backends buffer or write through)
	// and returns a *PeerError if the destination is down.
	Send(to int, stream uint32, data []float64) error
	// Recv blocks for the next message from member `from` on the given
	// stream and returns it copied into buf when buf has capacity for it
	// (a fresh slice otherwise — steady-state callers pass a buffer of the
	// expected size to stay allocation-free). It returns a *PeerError when
	// the peer is down or, with a straggler timeout configured, when no
	// message arrives in time (cause ErrStraggler; the link stays usable).
	Recv(from int, stream uint32, buf []float64) ([]float64, error)
	// Fail marks a member as down with the given cause: pending and future
	// Recvs from it (and Sends to it) return a *PeerError. Failure detectors
	// call it for a peer (rendezvous heartbeats), a failed engine cell for
	// its own rank.
	Fail(rank int, err error)
	// Close tears this endpoint down: its own rank is marked down so
	// peers blocked on it fail fast instead of hanging, and all queued
	// buffers are reclaimed. Idempotent.
	Close() error
}

// Typed failure causes. A Mesh surfaces them wrapped in *PeerError, so
// callers match with errors.Is.
var (
	// ErrClosed reports an endpoint that was torn down gracefully.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrStraggler reports a peer that exceeded the configured straggler
	// timeout without delivering a message. The peer is not marked down.
	ErrStraggler = errors.New("transport: peer exceeded straggler timeout")
	// ErrFrameTooLarge reports a frame whose payload exceeds the
	// configured maximum — a corrupt length prefix or a hostile peer.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrChecksum reports a payload whose CRC does not match its header.
	ErrChecksum = errors.New("transport: frame checksum mismatch")
	// ErrBadFrame reports a structurally malformed frame.
	ErrBadFrame = errors.New("transport: malformed frame")
	// ErrHeartbeat reports a worker that missed the rendezvous
	// coordinator's heartbeat window.
	ErrHeartbeat = errors.New("transport: heartbeat window exceeded")
)

// PeerError attributes a transport failure to a specific member.
type PeerError struct {
	// Rank is the peer the operation involved.
	Rank int
	// Op is the failing operation ("send", "recv", "dial",
	// "heartbeat", ...).
	Op string
	// Err is the cause (often one of the sentinel errors above).
	Err error
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: peer %d: %s: %v", e.Rank, e.Op, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PeerError) Unwrap() error { return e.Err }

func peerErr(rank int, op string, err error) error {
	return &PeerError{Rank: rank, Op: op, Err: err}
}

// Endpoint is the communication-group spec pipeline.Config embeds: the
// worker and clock knobs of an engine, and which mesh carries its
// traffic. The engine runs over one S·K-rank mesh either way: with a nil
// Mesh it builds a LocalFabric and hosts every cell; with a Mesh it hosts
// the one cell Rank names (multi-process shard mode).
type Endpoint struct {
	// Workers is K, the data-parallel worker (replica) count (>= 1).
	Workers int
	// Clock times engine steps. Nil selects a wall clock; tests inject a
	// deterministic clock (e.g. clock.Sim).
	Clock clock.Clock
	// Mesh, when non-nil, switches the engine into multi-process shard
	// mode: it runs only the member identified by Rank and exchanges
	// gradients/activations with the other OS processes through the mesh
	// (built by DialTCPMesh and a rendezvous Session; see internal/grid).
	Mesh Mesh
	// Rank is this process's member index within Mesh (shard mode only).
	Rank int
}

// Sharded reports whether the endpoint selects multi-process shard mode.
func (e Endpoint) Sharded() bool { return e.Mesh != nil }

// Validate checks the group spec. Its errors start at the field name; the
// embedding engine config prefixes its package.
func (e Endpoint) Validate() error {
	if e.Workers < 1 {
		return fmt.Errorf("Workers %d < 1", e.Workers)
	}
	if e.Mesh == nil {
		if e.Rank != 0 {
			return fmt.Errorf("Rank %d set without a Mesh (Rank selects this process's member in multi-process shard mode)", e.Rank)
		}
		return nil
	}
	if e.Rank < 0 || e.Rank >= e.Mesh.World() {
		return fmt.Errorf("Rank %d outside Mesh world [0, %d)", e.Rank, e.Mesh.World())
	}
	return nil
}

// Sub returns a sub-group view of m over the given member ranks (in group
// order): member i of the view is global rank members[i]. The underlying
// endpoint must itself be one of the members. Streams pass through to the
// parent, so a Sub must use stream tags disjoint from other traffic between
// the same rank pairs. The view of every rank in order is m itself, so a
// group that spans its mesh (a one-stage engine's ring) pays no extra hop.
// Closing the view closes the underlying endpoint; callers that do not own
// the parent should not Close the view.
func Sub(m Mesh, members []int) Mesh {
	self, whole := -1, len(members) == m.World()
	for i, r := range members {
		if r == m.Rank() {
			self = i
		}
		if r < 0 || r >= m.World() {
			panic(fmt.Sprintf("transport: Sub member %d outside world [0, %d)", r, m.World()))
		}
		whole = whole && r == i
	}
	if self < 0 {
		panic(fmt.Sprintf("transport: Sub members %v exclude the local rank %d", members, m.Rank()))
	}
	if whole {
		return m
	}
	return &subMesh{m: m, members: slices.Clone(members), self: self}
}

type subMesh struct {
	m       Mesh
	members []int
	self    int
}

func (s *subMesh) Rank() int  { return s.self }
func (s *subMesh) World() int { return len(s.members) }

func (s *subMesh) Send(to int, stream uint32, data []float64) error {
	return s.m.Send(s.members[to], stream, data)
}

func (s *subMesh) Recv(from int, stream uint32, buf []float64) ([]float64, error) {
	return s.m.Recv(s.members[from], stream, buf)
}

func (s *subMesh) Fail(rank int, err error) { s.m.Fail(s.members[rank], err) }
func (s *subMesh) Close() error             { return s.m.Close() }

package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Rendezvous: the multi-process control plane. Worker processes Join a
// Coordinator over TCP under the rank their launcher gave them, advertise
// their mesh listen addresses, and block until the coordinator broadcasts
// the complete rank→address table; the workers then dial the data mesh
// among themselves (DialTCPMesh) and heartbeat over the control link.
// Liveness is a read deadline: each coordinator connection must deliver a
// frame within the heartbeat window, so a worker that closes its control
// connection or goes silent before it reports is broadcast as down, every
// surviving worker can poison its mesh lanes (Mesh.Fail) and surface a
// typed *PeerError instead of hanging, and the coordinator's Wait returns
// the failure. A worker that loses its coordinator fails its own mesh the
// same way. Workers report a WorkerResult when done; Wait collects all of
// them. Control frames share the mesh's wire format with JSON payloads.

// Rendezvous protocol messages (JSON payloads).
type joinMsg struct {
	Rank int    `json:"rank"`
	Addr string `json:"addr"` // advertised mesh listen address
}

type tableMsg struct {
	Rank              int      `json:"rank"`
	World             int      `json:"world"`
	Addrs             []string `json:"addrs"`
	HeartbeatInterval int64    `json:"hb_interval_ns"`
}

type downMsg struct {
	Rank   int    `json:"rank"`
	Reason string `json:"reason"`
}

// WorkerResult is what each worker reports to the coordinator at the end
// of its run.
type WorkerResult struct {
	// Rank is the reporting worker.
	Rank int `json:"rank"`
	// Steps is the number of optimizer steps the worker executed.
	Steps int `json:"steps"`
	// Digest is the hex FNV-1a digest of the worker's local parameter
	// trajectory (internal/grid computes it) — the bit-identity witness.
	Digest string `json:"digest,omitempty"`
	// Loss is the worker's final-step local loss contribution.
	Loss float64 `json:"loss,omitempty"`
	// StepSeconds is the mean measured wall time per step — the input to
	// internal/cluster's analytic-model calibration.
	StepSeconds float64 `json:"step_seconds,omitempty"`
	// FlatBytes is the worker's local all-reduce payload in bytes (model
	// size input to the calibration).
	FlatBytes int `json:"flat_bytes,omitempty"`
	// Err carries the worker's failure, if it failed but could still
	// report.
	Err string `json:"err,omitempty"`
}

// ctrlIOTimeout bounds rendezvous control-frame writes.
const ctrlIOTimeout = 10 * time.Second

// ctrlMaxFrame bounds control payloads (JSON tables of addresses).
const ctrlMaxFrame = 1 << 20

// joinTimeout bounds the whole rendezvous: the coordinator's default for
// the world to assemble, and a worker's dial plus wait for the table.
const joinTimeout = 60 * time.Second

// ctrlConn is one end of a control connection; a frame is written whole
// under one deadline.
type ctrlConn struct {
	net.Conn
	wmu  sync.Mutex
	wbuf []byte
}

// send writes one control frame; a nil msg is an empty payload.
func (c *ctrlConn) send(kind byte, msg any) error {
	var payload []byte
	if msg != nil {
		var err error
		if payload, err = json.Marshal(msg); err != nil {
			return err
		}
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendFrame(c.wbuf[:0], kind, 0, payload)
	return writeDeadlined(c.Conn, c.wbuf, ctrlIOTimeout)
}

// CoordinatorConfig parameterizes NewCoordinator. The zero value selects
// the defaults noted per field.
type CoordinatorConfig struct {
	// World is the expected worker count (>= 1).
	World int
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 100ms).
	HeartbeatInterval time.Duration
	// HeartbeatWindow is how long a joined worker may go without sending a
	// frame before being declared down (default 2s; must comfortably
	// exceed the interval).
	HeartbeatWindow time.Duration
	// JoinTimeout bounds the whole rendezvous phase (default 60s).
	JoinTimeout time.Duration
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatWindow <= 0 {
		c.HeartbeatWindow = 2 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = joinTimeout
	}
	return c
}

// Coordinator is the rendezvous/monitoring service, run in-process by the
// launcher (internal/grid's Start) or by a test.
type Coordinator struct {
	cfg       CoordinatorConfig
	ln        net.Listener
	joinTimer *time.Timer

	mu       sync.Mutex
	conns    []net.Conn // every accepted connection, joined or not
	workers  []*coordWorker
	joined   int
	arrived  int // workers inside the current barrier
	nresults int
	failure  error
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// coordWorker is one joined worker's control connection and report.
type coordWorker struct {
	ctrlConn
	rank   int
	addr   string
	result *WorkerResult
}

// NewCoordinator starts the rendezvous service on ln and returns
// immediately; Wait blocks for the outcome.
func NewCoordinator(ln net.Listener, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.World < 1 {
		return nil, fmt.Errorf("transport: coordinator World %d < 1", cfg.World)
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		workers: make([]*coordWorker, cfg.World),
		done:    make(chan struct{}),
	}
	c.joinTimer = time.AfterFunc(cfg.JoinTimeout, func() {
		c.finish(fmt.Errorf("transport: rendezvous join timed out after %v", cfg.JoinTimeout))
	})
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's listen address (what workers join).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait blocks until every worker has reported a result (nil error), a
// worker failure is detected (typed *PeerError), or the join phase times
// out. The returned slice is indexed by rank; entries are nil for workers
// that never reported.
func (c *Coordinator) Wait() ([]*WorkerResult, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*WorkerResult, len(c.workers))
	for r, w := range c.workers {
		if w != nil {
			out[r] = w.result
		}
	}
	return out, c.failure
}

// Close tears the coordinator down. Idempotent; pending Wait calls return.
func (c *Coordinator) Close() {
	c.finish(ErrClosed)
	c.joinTimer.Stop()
	c.mu.Lock()
	c.closed = true
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.ln.Close()
	c.wg.Wait()
}

// finish resolves Wait with err unless it is resolved already, and
// reports whether this call resolved it.
func (c *Coordinator) finish(err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.done:
		return false
	default:
	}
	c.failure = err
	close(c.done)
	return true
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns = append(c.conns, conn)
		c.wg.Add(1)
		c.mu.Unlock()
		go c.serve(conn)
	}
}

// serve handles one connection: the join, then a worker's heartbeats,
// barriers and final result, each of which renews the read deadline.
func (c *Coordinator) serve(conn net.Conn) {
	defer c.wg.Done()
	defer conn.Close()
	conn.SetReadDeadline(clock.After(c.cfg.JoinTimeout))
	kind, _, payload, scratch, err := readFrame(conn, nil, ctrlMaxFrame)
	var join joinMsg
	if err != nil || kind != frameJoin || json.Unmarshal(payload, &join) != nil {
		return
	}
	w := c.admit(conn, join)
	if w == nil {
		return
	}
	for {
		kind, _, payload, scratch, err = readFrame(conn, scratch, ctrlMaxFrame)
		if err != nil {
			// A close or silence after reporting is a graceful exit.
			c.mu.Lock()
			reported := w.result != nil
			c.mu.Unlock()
			if !reported {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					err = ErrHeartbeat
				} else {
					err = fmt.Errorf("control connection lost: %w", err)
				}
				c.workerDown(w.rank, err)
			}
			return
		}
		conn.SetReadDeadline(clock.After(c.cfg.HeartbeatWindow))
		switch kind {
		case frameBarrier:
			c.barrierArrive()
		case frameResult:
			var res WorkerResult
			if json.Unmarshal(payload, &res) == nil {
				c.recordResult(w, &res)
			}
		}
	}
}

// admit registers a join for a free, in-range rank and — once the world is
// complete — starts every worker's heartbeat deadline and broadcasts the
// address table. It returns nil for a refused join.
func (c *Coordinator) admit(conn net.Conn, join joinMsg) *coordWorker {
	c.mu.Lock()
	if join.Rank < 0 || join.Rank >= len(c.workers) || c.workers[join.Rank] != nil {
		c.mu.Unlock()
		return nil
	}
	w := &coordWorker{ctrlConn: ctrlConn{Conn: conn}, rank: join.Rank, addr: join.Addr}
	c.workers[join.Rank] = w
	c.joined++
	if c.joined < len(c.workers) {
		// Silent until the table arrives: the join timer bounds this wait.
		conn.SetReadDeadline(time.Time{})
		c.mu.Unlock()
		return w
	}
	c.joinTimer.Stop()
	deadline := clock.After(c.cfg.HeartbeatWindow)
	addrs := make([]string, len(c.workers))
	for r, ww := range c.workers {
		addrs[r] = ww.addr
		ww.SetReadDeadline(deadline)
	}
	c.mu.Unlock()
	for r, ww := range c.workers {
		ww.send(frameTable, tableMsg{
			Rank:              r,
			World:             len(addrs),
			Addrs:             addrs,
			HeartbeatInterval: int64(c.cfg.HeartbeatInterval),
		})
	}
	return w
}

// joinedWorkers snapshots the joined workers.
func (c *Coordinator) joinedWorkers() []*coordWorker {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*coordWorker, 0, c.joined)
	for _, w := range c.workers {
		if w != nil {
			out = append(out, w)
		}
	}
	return out
}

// workerDown resolves Wait with a typed *PeerError and broadcasts the death
// to the other workers. Only the first failure of a run is broadcast. Write
// failures are left for each worker's read loop to classify.
func (c *Coordinator) workerDown(rank int, cause error) {
	if !c.finish(&PeerError{Rank: rank, Op: "heartbeat", Err: cause}) {
		return
	}
	msg := downMsg{Rank: rank, Reason: cause.Error()}
	for _, w := range c.joinedWorkers() {
		if w.rank != rank {
			w.send(frameDown, msg)
		}
	}
}

// barrierArrive counts one worker into the barrier. Every worker enters
// its barriers in program order, so the World-th arrival releases the
// current one and the count starts over for the next.
func (c *Coordinator) barrierArrive() {
	c.mu.Lock()
	c.arrived++
	release := c.arrived == len(c.workers)
	if release {
		c.arrived = 0
	}
	c.mu.Unlock()
	if release {
		for _, w := range c.joinedWorkers() {
			w.send(frameBarrierOK, nil)
		}
	}
}

func (c *Coordinator) recordResult(w *coordWorker, res *WorkerResult) {
	c.mu.Lock()
	if w.result == nil {
		w.result = res
		c.nresults++
	}
	complete := c.nresults == len(c.workers)
	c.mu.Unlock()
	if res.Err != "" {
		c.workerDown(w.rank, fmt.Errorf("worker reported: %s", res.Err))
	} else if complete {
		c.finish(nil)
	}
}

// SessionConfig parameterizes Join.
type SessionConfig struct {
	// Coordinator is the coordinator's address.
	Coordinator string
	// Rank is this worker's rank in [0, World).
	Rank int
	// Addr is the mesh listen address this worker advertises.
	Addr string
}

// Session is one worker's rendezvous membership: it heartbeats in the
// background, surfaces coordinator-announced peer deaths and the loss of
// the coordinator itself (wire OnPeerDown to Mesh.Fail), and reports the
// worker's final result.
type Session struct {
	// Rank is the member index; World and Addrs are the mesh table to
	// dial.
	Rank  int
	World int
	Addrs []string

	heartbeatInterval time.Duration
	ctrl              ctrlConn

	mu     sync.Mutex
	onDown func(rank int, err error)

	barrierOK chan struct{}
	failed    chan struct{}
	failErr   error
	failOnce  sync.Once
	stopHB    chan struct{}
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// Join dials the coordinator, registers, and blocks until the full
// rank→address table arrives.
func Join(cfg SessionConfig) (*Session, error) {
	conn, err := net.DialTimeout("tcp", cfg.Coordinator, joinTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: join %s: %w", cfg.Coordinator, err)
	}
	s := &Session{
		ctrl:      ctrlConn{Conn: conn},
		barrierOK: make(chan struct{}, 1),
		failed:    make(chan struct{}),
		stopHB:    make(chan struct{}),
	}
	if err := s.ctrl.send(frameJoin, joinMsg{Rank: cfg.Rank, Addr: cfg.Addr}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: join write: %w", err)
	}
	conn.SetReadDeadline(clock.After(joinTimeout))
	kind, _, payload, _, err := readFrame(conn, nil, ctrlMaxFrame)
	if err == nil && kind != frameTable {
		err = fmt.Errorf("%w: kind %d where the table belongs", ErrBadFrame, kind)
	}
	var table tableMsg
	if err == nil {
		err = json.Unmarshal(payload, &table)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: join: waiting for table: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	s.Rank = table.Rank
	s.World = table.World
	s.Addrs = table.Addrs
	s.heartbeatInterval = time.Duration(table.HeartbeatInterval)

	s.wg.Add(2)
	go s.heartbeatLoop()
	go s.readLoop()
	return s, nil
}

// OnPeerDown installs the failure callback (typically Mesh.Fail). It is
// called with a coordinator-announced dead peer's rank, and with the
// session's own rank when the coordinator link is lost before Close. Set
// it before the run starts; it is invoked from the session's read loop.
func (s *Session) OnPeerDown(fn func(rank int, err error)) {
	s.mu.Lock()
	s.onDown = fn
	s.mu.Unlock()
}

// down records the session's first failure, which fails every Barrier
// from now on, and hands rank's failure to the OnPeerDown hook.
func (s *Session) down(rank int, err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failed)
	})
	s.mu.Lock()
	fn := s.onDown
	s.mu.Unlock()
	if fn != nil {
		fn(rank, err)
	}
}

func (s *Session) heartbeatLoop() {
	defer s.wg.Done()
	interval := s.heartbeatInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stopHB:
			return
		case <-tick.C:
			if s.ctrl.send(frameHeartbeat, nil) != nil {
				return // read loop classifies the broken link
			}
		}
	}
}

func (s *Session) readLoop() {
	defer s.wg.Done()
	var scratch []byte
	for {
		kind, _, payload, s2, err := readFrame(s.ctrl.Conn, scratch, ctrlMaxFrame)
		scratch = s2
		if err != nil {
			if !s.closed.Load() {
				s.down(s.Rank, fmt.Errorf("transport: coordinator link lost: %w", err))
			}
			return
		}
		switch kind {
		case frameDown:
			var d downMsg
			if json.Unmarshal(payload, &d) == nil {
				s.down(d.Rank, &PeerError{Rank: d.Rank, Op: "heartbeat", Err: fmt.Errorf("%w: %s", ErrHeartbeat, d.Reason)})
			}
		case frameBarrierOK:
			select {
			case s.barrierOK <- struct{}{}:
			default:
			}
		}
	}
}

// Barrier blocks until every worker has entered the same barrier (in
// program order — all workers must call Barrier the same number of times).
func (s *Session) Barrier() error {
	if err := s.ctrl.send(frameBarrier, nil); err != nil {
		return fmt.Errorf("transport: barrier send: %w", err)
	}
	select {
	case <-s.barrierOK:
		return nil
	case <-s.failed:
		return s.failErr
	}
}

// Report sends the worker's final result to the coordinator.
func (s *Session) Report(res WorkerResult) error {
	return s.ctrl.send(frameResult, res)
}

// Close leaves the session: heartbeats stop and the control connection
// closes. Call after Report. Idempotent.
func (s *Session) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopHB)
	s.ctrl.Close()
	s.wg.Wait()
}

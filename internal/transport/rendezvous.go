package transport

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Rendezvous: the multi-process control plane. Worker processes Join a
// Coordinator over TCP, advertise their mesh listen addresses, and block
// until the coordinator broadcasts the complete rank→address table; the
// workers then dial the data mesh among themselves (DialTCPMesh) and the
// coordinator switches to monitoring heartbeats. A worker that closes its
// control connection or misses the heartbeat window is broadcast as down,
// so every surviving worker can poison its mesh lanes (Mesh.Fail) and
// surface a typed *PeerError instead of hanging, and the coordinator's
// Wait returns the failure. Workers report a WorkerResult when done; Wait
// collects all of them. Control frames share the mesh's wire format with
// JSON payloads.

// Rendezvous protocol messages (JSON payloads).
type joinMsg struct {
	Rank int    `json:"rank"` // -1 requests coordinator assignment
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

type barrierMsg struct {
	ID uint64 `json:"id"`
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

// ctrlIOTimeout bounds rendezvous control-frame writes and the join-frame
// read.
const ctrlIOTimeout = 10 * time.Second

// ctrlMaxFrame bounds control payloads (JSON tables of addresses).
const ctrlMaxFrame = 1 << 20

// CoordinatorConfig parameterizes NewCoordinator. The zero value selects
// the defaults noted per field.
type CoordinatorConfig struct {
	// World is the expected worker count (>= 1).
	World int
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 100ms).
	HeartbeatInterval time.Duration
	// HeartbeatWindow is how long a silent worker may go before being
	// declared down (default 2s; must comfortably exceed the interval).
	HeartbeatWindow time.Duration
	// JoinTimeout bounds the whole rendezvous phase (default 60s).
	JoinTimeout time.Duration
	// Clock stamps heartbeats (default wall clock).
	Clock clock.Clock
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatWindow <= 0 {
		c.HeartbeatWindow = 2 * time.Second
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 60 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.NewReal()
	}
	return c
}

// Coordinator is the rendezvous/monitoring service, run either in-process
// by a test or by `mlperf-worker -coordinate`.
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener
	clk clock.Clock

	mu        sync.Mutex
	workers   []*coordWorker
	joined    int
	tableSent bool
	nresults  int
	failure   error
	finished  bool
	barriers  map[uint64]int

	done   chan struct{}
	stop   chan struct{}
	events chan Event
	wg     sync.WaitGroup
}

// coordWorker is one worker's control connection and liveness state.
type coordWorker struct {
	rank   int
	addr   string
	conn   net.Conn
	wmu    sync.Mutex
	wbuf   []byte
	lastHB time.Duration
	down   bool
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
		cfg:      cfg,
		ln:       ln,
		clk:      cfg.Clock,
		workers:  make([]*coordWorker, cfg.World),
		barriers: make(map[uint64]int),
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		events:   make(chan Event, 4*cfg.World),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// Addr returns the coordinator's listen address (what workers join).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Events returns the coordinator's membership feed (buffered, lossy).
func (c *Coordinator) Events() <-chan Event { return c.events }

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
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
	default:
		close(c.stop)
		c.mu.Unlock()
		c.ln.Close()
		c.mu.Lock()
		for _, w := range c.workers {
			if w != nil {
				w.conn.Close()
			}
		}
		c.mu.Unlock()
	}
	c.finish(ErrClosed)
	c.wg.Wait()
}

func (c *Coordinator) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// finish resolves Wait exactly once.
func (c *Coordinator) finish(err error) {
	c.mu.Lock()
	if !c.finished {
		c.finished = true
		if c.failure == nil {
			c.failure = err
		}
		close(c.done)
	}
	c.mu.Unlock()
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// serve handles one worker connection: the join handshake, then
// heartbeats, barriers, and the final result.
func (c *Coordinator) serve(conn net.Conn) {
	defer c.wg.Done()
	conn.SetReadDeadline(clock.After(c.cfg.JoinTimeout))
	kind, _, payload, scratch, err := readFrame(conn, nil, ctrlMaxFrame)
	if err != nil || kind != frameJoin {
		conn.Close()
		return
	}
	var join joinMsg
	if err := json.Unmarshal(payload, &join); err != nil {
		conn.Close()
		return
	}
	w, err := c.admit(conn, join)
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})

	for {
		kind, _, payload, s2, err := readFrame(conn, scratch, ctrlMaxFrame)
		scratch = s2
		if err != nil {
			// A close after reporting (or after the run resolved) is a
			// graceful exit, not a failure.
			c.mu.Lock()
			graceful := w.result != nil || c.finished
			c.mu.Unlock()
			if !graceful && !c.stopped() {
				c.workerDown(w.rank, fmt.Errorf("control connection lost: %w", err))
			}
			return
		}
		switch kind {
		case frameHeartbeat:
			c.mu.Lock()
			w.lastHB = c.clk.Now()
			c.mu.Unlock()
		case frameBarrier:
			var b barrierMsg
			if json.Unmarshal(payload, &b) == nil {
				c.barrierArrive(b.ID)
			}
		case frameResult:
			var res WorkerResult
			if json.Unmarshal(payload, &res) == nil {
				c.recordResult(w, &res)
			}
		}
	}
}

// admit registers a joining worker, assigns a rank if requested, and —
// once the world is complete — broadcasts the address table.
func (c *Coordinator) admit(conn net.Conn, join joinMsg) (*coordWorker, error) {
	c.mu.Lock()
	rank := join.Rank
	if rank < 0 {
		for r, w := range c.workers {
			if w == nil {
				rank = r
				break
			}
		}
	}
	if rank < 0 || rank >= len(c.workers) || c.workers[rank] != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: join for invalid or taken rank %d", join.Rank)
	}
	w := &coordWorker{rank: rank, addr: join.Addr, conn: conn, lastHB: c.clk.Now()}
	c.workers[rank] = w
	c.joined++
	complete := c.joined == len(c.workers)
	if complete {
		c.tableSent = true
		for _, ww := range c.workers {
			ww.lastHB = c.clk.Now()
		}
	}
	c.mu.Unlock()

	select {
	case c.events <- Event{Rank: rank, Kind: EventJoin}:
	default:
	}
	if complete {
		addrs := make([]string, len(c.workers))
		for r, ww := range c.workers {
			addrs[r] = ww.addr
		}
		for r, ww := range c.workers {
			c.send(ww, frameTable, tableMsg{
				Rank:              r,
				World:             len(addrs),
				Addrs:             addrs,
				HeartbeatInterval: int64(c.cfg.HeartbeatInterval),
			})
		}
	}
	return w, nil
}

// send marshals and writes one control frame to a worker; write failures
// are left for the worker's read loop / heartbeat monitor to classify.
func (c *Coordinator) send(w *coordWorker, kind byte, msg any) {
	payload, err := json.Marshal(msg)
	if err != nil {
		return
	}
	w.wmu.Lock()
	w.wbuf = appendFrame(w.wbuf[:0], kind, 0, payload)
	writeDeadlined(w.conn, w.wbuf, ctrlIOTimeout)
	w.wmu.Unlock()
}

// workerDown records a failure, broadcasts it to the surviving workers,
// and resolves Wait with a typed *PeerError.
func (c *Coordinator) workerDown(rank int, cause error) {
	c.mu.Lock()
	w := c.workers[rank]
	if w == nil || w.down || c.finished {
		c.mu.Unlock()
		return
	}
	w.down = true
	if c.failure == nil {
		c.failure = &PeerError{Rank: rank, Op: "heartbeat", Err: cause}
	}
	live := make([]*coordWorker, 0, len(c.workers))
	for _, ww := range c.workers {
		if ww != nil && !ww.down {
			live = append(live, ww)
		}
	}
	c.mu.Unlock()

	select {
	case c.events <- Event{Rank: rank, Kind: EventLeave, Err: cause}:
	default:
	}
	msg := downMsg{Rank: rank, Reason: cause.Error()}
	for _, ww := range live {
		c.send(ww, frameDown, msg)
	}
	c.finish(nil) // failure already recorded
}

func (c *Coordinator) barrierArrive(id uint64) {
	c.mu.Lock()
	c.barriers[id]++
	release := c.barriers[id] == len(c.workers)
	var live []*coordWorker
	if release {
		delete(c.barriers, id)
		for _, ww := range c.workers {
			if ww != nil && !ww.down {
				live = append(live, ww)
			}
		}
	}
	c.mu.Unlock()
	if release {
		for _, ww := range live {
			c.send(ww, frameBarrierOK, barrierMsg{ID: id})
		}
	}
}

func (c *Coordinator) recordResult(w *coordWorker, res *WorkerResult) {
	c.mu.Lock()
	first := w.result == nil
	if first {
		w.result = res
		c.nresults++
	}
	complete := c.nresults == len(c.workers)
	c.mu.Unlock()
	if res.Err != "" {
		c.workerDown(w.rank, fmt.Errorf("worker reported: %s", res.Err))
		return
	}
	if complete {
		c.finish(nil)
	}
}

// monitor watches heartbeats (after the table broadcast) and the join
// deadline (before it).
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	start := c.clk.Now()
	tick := time.NewTicker(c.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.done:
			return
		case <-tick.C:
		}
		now := c.clk.Now()
		c.mu.Lock()
		sent := c.tableSent
		var stale []int
		if sent {
			for _, w := range c.workers {
				if w != nil && !w.down && w.result == nil && now-w.lastHB > c.cfg.HeartbeatWindow {
					stale = append(stale, w.rank)
				}
			}
		}
		c.mu.Unlock()
		if !sent && now-start > c.cfg.JoinTimeout {
			c.finish(fmt.Errorf("transport: rendezvous join timed out after %v", c.cfg.JoinTimeout))
			return
		}
		for _, r := range stale {
			c.workerDown(r, ErrHeartbeat)
		}
	}
}

// SessionConfig parameterizes Join.
type SessionConfig struct {
	// Coordinator is the coordinator's address.
	Coordinator string
	// Rank is the requested rank, or -1 for coordinator assignment.
	Rank int
	// Addr is the mesh listen address this worker advertises.
	Addr string
	// JoinTimeout bounds dialing plus waiting for the full table
	// (default 60s).
	JoinTimeout time.Duration
}

// Session is one worker's rendezvous membership: it heartbeats in the
// background, surfaces coordinator-announced peer deaths (wire OnPeerDown
// to Mesh.Fail), and reports the worker's final result.
type Session struct {
	// Rank is the assigned member index; World and Addrs are the mesh
	// table to dial.
	Rank  int
	World int
	Addrs []string
	// HeartbeatInterval is the coordinator-prescribed beat cadence.
	HeartbeatInterval time.Duration

	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte

	mu     sync.Mutex
	onDown func(rank int, err error)

	barrierCh chan uint64
	barrierID atomic.Uint64
	failed    chan struct{}
	failErr   error
	failOnce  sync.Once
	peerDown  chan struct{}
	peerErr   error
	downOnce  sync.Once
	stopHB    chan struct{}
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// Join dials the coordinator, registers, and blocks until the full
// rank→address table arrives.
func Join(cfg SessionConfig) (*Session, error) {
	timeout := cfg.JoinTimeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	conn, err := net.DialTimeout("tcp", cfg.Coordinator, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: join %s: %w", cfg.Coordinator, err)
	}
	s := &Session{
		conn:      conn,
		barrierCh: make(chan uint64, 8),
		failed:    make(chan struct{}),
		peerDown:  make(chan struct{}),
		stopHB:    make(chan struct{}),
	}
	payload, err := json.Marshal(joinMsg{Rank: cfg.Rank, Addr: cfg.Addr})
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.wbuf = appendFrame(s.wbuf[:0], frameJoin, 0, payload)
	if err := writeDeadlined(conn, s.wbuf, ctrlIOTimeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: join write: %w", err)
	}
	conn.SetReadDeadline(clock.After(timeout))
	kind, _, tpayload, _, err := readFrame(conn, nil, ctrlMaxFrame)
	if err != nil || kind != frameTable {
		conn.Close()
		return nil, fmt.Errorf("transport: join: waiting for table (kind %d): %w", kind, err)
	}
	var table tableMsg
	if err := json.Unmarshal(tpayload, &table); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	s.Rank = table.Rank
	s.World = table.World
	s.Addrs = table.Addrs
	s.HeartbeatInterval = time.Duration(table.HeartbeatInterval)

	s.wg.Add(2)
	go s.heartbeatLoop()
	go s.readLoop()
	return s, nil
}

// OnPeerDown installs the peer-death callback (typically Mesh.Fail). Set
// it before the run starts; it is invoked from the session's read loop.
func (s *Session) OnPeerDown(fn func(rank int, err error)) {
	s.mu.Lock()
	s.onDown = fn
	s.mu.Unlock()
}

// Err returns the session failure, if the coordinator link was lost.
func (s *Session) Err() error {
	select {
	case <-s.failed:
		return s.failErr
	default:
		return nil
	}
}

func (s *Session) fail(err error) {
	s.failOnce.Do(func() {
		s.failErr = err
		close(s.failed)
	})
}

func (s *Session) sendCtrl(kind byte, msg any) error {
	var payload []byte
	if msg != nil {
		var err error
		payload, err = json.Marshal(msg)
		if err != nil {
			return err
		}
	}
	s.wmu.Lock()
	s.wbuf = appendFrame(s.wbuf[:0], kind, 0, payload)
	err := writeDeadlined(s.conn, s.wbuf, ctrlIOTimeout)
	s.wmu.Unlock()
	return err
}

func (s *Session) heartbeatLoop() {
	defer s.wg.Done()
	interval := s.HeartbeatInterval
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
			if s.sendCtrl(frameHeartbeat, nil) != nil {
				return // read loop classifies the broken link
			}
		}
	}
}

func (s *Session) readLoop() {
	defer s.wg.Done()
	var scratch []byte
	for {
		kind, _, payload, s2, err := readFrame(s.conn, scratch, ctrlMaxFrame)
		scratch = s2
		if err != nil {
			if !s.closed.Load() {
				s.fail(fmt.Errorf("transport: coordinator link lost: %w", err))
			}
			return
		}
		switch kind {
		case frameDown:
			var down downMsg
			if json.Unmarshal(payload, &down) != nil {
				continue
			}
			cause := &PeerError{Rank: down.Rank, Op: "heartbeat", Err: fmt.Errorf("%w: %s", ErrHeartbeat, down.Reason)}
			s.downOnce.Do(func() {
				s.peerErr = cause
				close(s.peerDown)
			})
			s.mu.Lock()
			fn := s.onDown
			s.mu.Unlock()
			if fn != nil {
				fn(down.Rank, cause)
			}
		case frameBarrierOK:
			var b barrierMsg
			if json.Unmarshal(payload, &b) == nil {
				select {
				case s.barrierCh <- b.ID:
				default:
				}
			}
		}
	}
}

// Barrier blocks until every live worker has entered the same barrier (in
// program order — all workers must call Barrier the same number of times).
func (s *Session) Barrier() error {
	id := s.barrierID.Add(1)
	if err := s.sendCtrl(frameBarrier, barrierMsg{ID: id}); err != nil {
		return fmt.Errorf("transport: barrier send: %w", err)
	}
	for {
		select {
		case got := <-s.barrierCh:
			if got == id {
				return nil
			}
		case <-s.peerDown:
			return s.peerErr
		case <-s.failed:
			return s.failErr
		}
	}
}

// PeerDown returns the first coordinator-announced peer failure, or nil.
func (s *Session) PeerDown() error {
	select {
	case <-s.peerDown:
		return s.peerErr
	default:
		return nil
	}
}

// Report sends the worker's final result to the coordinator.
func (s *Session) Report(res WorkerResult) error {
	return s.sendCtrl(frameResult, res)
}

// Close leaves the session: heartbeats stop and the control connection
// closes. Call after Report. Idempotent.
func (s *Session) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.stopHB)
	s.conn.Close()
	s.wg.Wait()
}

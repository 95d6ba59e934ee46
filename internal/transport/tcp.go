package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/seal"
)

// frameIOTimeout is the per-frame write deadline and the hello-exchange
// read deadline.
const frameIOTimeout = 30 * time.Second

// TCPOptions tunes the TCP backend. The zero value selects the defaults
// noted per field.
type TCPOptions struct {
	// DialTimeout bounds the whole connection-establishment phase —
	// dialing higher ranks and accepting lower ones (default 30s).
	DialTimeout time.Duration
	// Straggler, when positive, bounds every Recv wait; expiry surfaces
	// ErrStraggler without marking the peer down.
	Straggler time.Duration
	// DialRetries is how many times a refused dial is retried (default 20;
	// worker processes race the peers' listeners coming up, so refusals
	// during rendezvous are expected).
	DialRetries int
	// RetryBackoff is the initial retry sleep, doubled per retry up to
	// 32x (default 25ms).
	RetryBackoff time.Duration
	// MaxFrame bounds a frame's payload bytes; larger declared sizes are
	// rejected at header time (default 1 GiB, comfortably above the
	// largest gradient chunk in this repo).
	MaxFrame int
	// WrapConn, when non-nil, wraps every established peer connection
	// (after the hello exchange identifies the peer). It exists for fault
	// injection — internal/chaos wraps connections to corrupt, drop, or
	// delay wire bytes — and must be deterministic for the run to stay
	// reproducible.
	WrapConn func(peer int, c net.Conn) net.Conn
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 30 * time.Second
	}
	if o.DialRetries <= 0 {
		o.DialRetries = 20
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.MaxFrame <= 0 {
		o.MaxFrame = 1 << 30
	}
	return o
}

// TCPConfig parameterizes DialTCPMesh.
type TCPConfig struct {
	// Rank is this process's member index.
	Rank int
	// Addrs lists every member's mesh address, indexed by rank (the
	// rendezvous table). Addrs[Rank] is the local listen address, used
	// only when Listener is nil.
	Addrs []string
	// Listener, when non-nil, is the pre-bound local listener (the usual
	// case: bind on ":0" first, advertise the resulting address through
	// the rendezvous coordinator, then dial the mesh).
	Listener net.Listener
	// Opts tunes timeouts and limits.
	Opts TCPOptions
}

// TCPMesh is the multi-process Mesh backend: one TCP connection per peer
// pair (the lower rank dials the higher; a hello frame identifies the
// dialer), reused for every stream. Frames are length-prefixed with a
// CRC-32C payload checksum; writes carry a deadline, dials retry with
// exponential backoff, and a dead connection poisons the peer's lanes so
// receivers fail with a typed *PeerError instead of hanging.
type TCPMesh struct {
	rank, world int
	opts        TCPOptions

	ln    net.Listener
	conns []*tcpPeer
	// lanes holds the inbound lanes only (every key's to is rank): the
	// outbound side of a pair is the peer's connection.
	lanes *laneTable

	closed atomic.Bool
	wg     sync.WaitGroup
}

// tcpPeer is one live peer connection plus its reusable write scratch.
type tcpPeer struct {
	c    net.Conn
	wmu  sync.Mutex
	wbuf []byte // frame under construction (header + payload)
	pbuf []byte // payload scratch (CRC needs it contiguous pre-header)
}

// DialTCPMesh establishes the full peer mesh and returns once every
// connection is up and verified, or fails with the first setup error.
func DialTCPMesh(cfg TCPConfig) (*TCPMesh, error) {
	world := len(cfg.Addrs)
	if world < 1 {
		return nil, fmt.Errorf("transport: DialTCPMesh with empty address table")
	}
	if cfg.Rank < 0 || cfg.Rank >= world {
		return nil, fmt.Errorf("transport: DialTCPMesh rank %d outside [0, %d)", cfg.Rank, world)
	}
	m := &TCPMesh{
		rank:  cfg.Rank,
		world: world,
		opts:  cfg.Opts.withDefaults(),
		conns: make([]*tcpPeer, world),
		lanes: newLaneTable(world, nil, false),
	}

	ln := cfg.Listener
	if ln == nil && world > 1 {
		var err error
		ln, err = net.Listen("tcp", cfg.Addrs[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: mesh listen %s: %w", cfg.Addrs[cfg.Rank], err)
		}
	}
	m.ln = ln

	// Lower ranks dial us; we dial higher ranks. Accept concurrently so a
	// slow dialer cannot deadlock the exchange, then join on both halves
	// under the dial timeout.
	acceptCh := make(chan error, 1)
	expect := cfg.Rank // ranks 0..rank-1 dial in
	go func() { acceptCh <- m.acceptPeers(expect) }()
	dialErr := m.dialPeers(cfg.Addrs)

	var acceptErr error
	timer := time.NewTimer(m.opts.DialTimeout)
	select {
	case acceptErr = <-acceptCh:
	case <-timer.C:
		acceptErr = fmt.Errorf("transport: timed out accepting %d mesh peers", expect)
	}
	timer.Stop()
	if dialErr != nil || acceptErr != nil {
		m.Close()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}

	for r, pc := range m.conns {
		if r == m.rank {
			continue
		}
		m.wg.Add(1)
		go m.readLoop(r, pc)
	}
	return m, nil
}

// acceptPeers accepts and identifies `expect` inbound peer connections.
func (m *TCPMesh) acceptPeers(expect int) error {
	for got := 0; got < expect; got++ {
		conn, err := m.ln.Accept()
		if err != nil {
			return fmt.Errorf("transport: mesh accept: %w", err)
		}
		if err := conn.SetReadDeadline(clock.After(frameIOTimeout)); err != nil {
			conn.Close()
			return err
		}
		kind, _, payload, _, err := readFrame(conn, nil, frameHeaderLen+16)
		if err == nil && (kind != frameHello || len(payload) != 8) {
			err = fmt.Errorf("%w: kind %d with %d payload bytes where a hello belongs", ErrBadFrame, kind, len(payload))
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("transport: mesh hello from %v failed: %w", conn.RemoteAddr(), err)
		}
		var who [1]float64
		seal.GetFloat64s(who[:], payload)
		peer := int(who[0])
		if peer < 0 || peer >= m.world || peer == m.rank || m.conns[peer] != nil {
			conn.Close()
			return fmt.Errorf("transport: mesh hello claims invalid or duplicate rank %d", peer)
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			conn.Close()
			return err
		}
		m.conns[peer] = &tcpPeer{c: m.wrap(peer, conn)}
	}
	return nil
}

// wrap applies the WrapConn fault-injection hook, if configured.
func (m *TCPMesh) wrap(peer int, c net.Conn) net.Conn {
	if m.opts.WrapConn != nil {
		return m.opts.WrapConn(peer, c)
	}
	return c
}

// dialPeers connects to every higher rank, retrying refused dials with
// exponential backoff (peers' listeners race ours during rendezvous).
func (m *TCPMesh) dialPeers(addrs []string) error {
	for p := m.rank + 1; p < m.world; p++ {
		conn, err := dialRetry(addrs[p], m.rank, m.opts)
		if err != nil {
			return &PeerError{Rank: p, Op: "dial", Err: err}
		}
		pc := &tcpPeer{c: conn}
		pc.pbuf = appendFloats(pc.pbuf[:0], []float64{float64(m.rank)})
		pc.wbuf = appendFrame(pc.wbuf[:0], frameHello, 0, pc.pbuf)
		if err := writeDeadlined(conn, pc.wbuf, frameIOTimeout); err != nil {
			conn.Close()
			return &PeerError{Rank: p, Op: "dial", Err: err}
		}
		pc.c = m.wrap(p, conn)
		m.conns[p] = pc
	}
	return nil
}

// dialSchedule precomputes the retry sleeps for one peer dial: exponential
// backoff doubling from RetryBackoff up to 32x, plus a deterministic
// per-(addr, rank, attempt) jitter of up to a quarter backoff so a whole
// grid restarting at once (the supervisor's respawn path) does not hammer
// a recovering listener in lockstep. The schedule is truncated so the
// TOTAL sleep stays within DialTimeout — the per-attempt net.DialTimeout
// bound alone would otherwise let the retry loop hold the rendezvous for
// DialRetries x DialTimeout. len(schedule)+1 is the attempt budget.
func dialSchedule(addr string, rank int, opts TCPOptions) []time.Duration {
	var sched []time.Duration
	var total time.Duration
	backoff := opts.RetryBackoff
	for attempt := 1; attempt <= opts.DialRetries; attempt++ {
		d := backoff + dialJitter(addr, rank, attempt, backoff/4)
		if total+d > opts.DialTimeout {
			break
		}
		sched = append(sched, d)
		total += d
		if backoff < 32*opts.RetryBackoff {
			backoff *= 2
		}
	}
	return sched
}

// dialJitter derives a deterministic jitter in [0, max) from
// (addr, rank, attempt) via FNV-1a — no global randomness (the repo's
// determinism discipline), yet distinct ranks desynchronize.
func dialJitter(addr string, rank, attempt int, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	h := seal.New().Str(addr).Bytes([]byte{byte(rank), byte(rank >> 8), byte(attempt), byte(attempt >> 8)})
	return time.Duration(uint64(h) % uint64(max))
}

func dialRetry(addr string, rank int, opts TCPOptions) (net.Conn, error) {
	sched := dialSchedule(addr, rank, opts)
	var err error
	for attempt := 0; attempt <= len(sched); attempt++ {
		if attempt > 0 {
			time.Sleep(sched[attempt-1])
		}
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, opts.DialTimeout)
		if err == nil {
			return conn, nil
		}
	}
	return nil, fmt.Errorf("dial %s after %d retries: %w", addr, len(sched), err)
}

func writeDeadlined(c net.Conn, frame []byte, timeout time.Duration) error {
	if err := c.SetWriteDeadline(clock.After(timeout)); err != nil {
		return err
	}
	_, err := c.Write(frame)
	return err
}

// readLoop demultiplexes one peer connection's frames into per-stream
// lanes until the connection dies, then poisons the peer.
func (m *TCPMesh) readLoop(from int, pc *tcpPeer) {
	defer m.wg.Done()
	var scratch []byte
	for {
		kind, stream, payload, s2, err := readFrame(pc.c, scratch, m.opts.MaxFrame)
		scratch = s2
		if err != nil {
			if m.closed.Load() {
				err = ErrClosed
			}
			m.failPeer(from, err)
			return
		}
		if kind != frameData {
			continue // stray control frame: mesh links carry data only
		}
		if len(payload)%8 != 0 {
			m.failPeer(from, fmt.Errorf("%w: data payload of %d bytes", ErrBadFrame, len(payload)))
			return
		}
		buf := m.lanes.pool.GetRaw(len(payload) / 8) //mlperfvet:owns — queued message, reclaimed by Recv or the lane's poison drain
		seal.GetFloat64s(buf, payload)
		if err := m.lanes.lane(linkKey{from: from, to: m.rank, stream: stream}).push(buf); err != nil {
			m.lanes.pool.Put(buf)
		}
	}
}

// failPeer marks a peer down (first cause wins), poisons its lanes, and
// closes its connection.
func (m *TCPMesh) failPeer(rank int, cause error) {
	m.lanes.fail(rank, cause)
	if pc := m.conns[rank]; pc != nil {
		pc.c.Close()
	}
}

// Rank implements Mesh.
func (m *TCPMesh) Rank() int { return m.rank }

// World implements Mesh.
func (m *TCPMesh) World() int { return m.world }

// Fail implements Mesh — the rendezvous session's heartbeat monitor calls
// it when the coordinator reports a peer down.
func (m *TCPMesh) Fail(rank int, err error) {
	if rank == m.rank {
		m.Close()
		return
	}
	m.failPeer(rank, err)
}

// Send implements Mesh: one deadlined frame write on the peer's reused
// connection. A write failure marks the peer down (the rendezvous layer
// owns recovery; the mesh does not reconnect mid-run).
func (m *TCPMesh) Send(to int, stream uint32, data []float64) error {
	if err := m.lanes.checkPeer(m.rank, to, "send"); err != nil {
		return err
	}
	if m.closed.Load() {
		return peerErr(to, "send", ErrClosed)
	}
	if cause := m.lanes.cause(to); cause != nil {
		return peerErr(to, "send", cause)
	}
	pc := m.conns[to]
	pc.wmu.Lock()
	pc.pbuf = appendFloats(pc.pbuf[:0], data)
	pc.wbuf = appendFrame(pc.wbuf[:0], frameData, stream, pc.pbuf)
	err := writeDeadlined(pc.c, pc.wbuf, frameIOTimeout)
	pc.wmu.Unlock()
	if err != nil {
		m.failPeer(to, err)
		return peerErr(to, "send", err)
	}
	return nil
}

// Recv implements Mesh.
func (m *TCPMesh) Recv(from int, stream uint32, buf []float64) ([]float64, error) {
	if err := m.lanes.checkPeer(m.rank, from, "recv"); err != nil {
		return nil, err
	}
	q := m.lanes.lane(linkKey{from: from, to: m.rank, stream: stream})
	return m.lanes.deliver(q, from, m.opts.Straggler, buf)
}

// Close implements Mesh: graceful teardown — the listener and every peer
// connection are closed, all lanes are poisoned with ErrClosed, and the
// reader goroutines are joined. Idempotent.
func (m *TCPMesh) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	if m.ln != nil {
		m.ln.Close()
	}
	for _, pc := range m.conns {
		if pc != nil {
			pc.c.Close()
		}
	}
	// Every lane is inbound, so failing this rank poisons them all, and a
	// lane subscribed later is born poisoned.
	m.lanes.fail(m.rank, ErrClosed)
	m.wg.Wait()
	return nil
}

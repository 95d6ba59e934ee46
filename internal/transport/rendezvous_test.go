package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakcheck"
)

func newCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(ln, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

func joinAll(t *testing.T, coord *Coordinator, world int) []*Session {
	t.Helper()
	sessions := make([]*Session, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for i := 0; i < world; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], errs[i] = Join(SessionConfig{
				Coordinator: coord.Addr(),
				Rank:        i,
				Addr:        "mesh-addr-placeholder",
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	return sessions
}

func TestRendezvousJoinReportWait(t *testing.T) {
	const world = 3
	coord := newCoordinator(t, CoordinatorConfig{World: world})
	sessions := joinAll(t, coord, world)

	for i, s := range sessions {
		if s.World != world || len(s.Addrs) != world {
			t.Fatalf("session world/table = %d/%d; want %d", s.World, len(s.Addrs), world)
		}
		if s.Rank != i {
			t.Fatalf("session %d joined as rank %d", i, s.Rank)
		}
	}

	// Coordinator-mediated barriers release everyone, one after another.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		barErrs := make([]error, world)
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, s *Session) { defer wg.Done(); barErrs[i] = s.Barrier() }(i, s)
		}
		wg.Wait()
		for i, err := range barErrs {
			if err != nil {
				t.Fatalf("round %d: session %d barrier: %v", round, i, err)
			}
		}
	}

	for _, s := range sessions {
		if err := s.Report(WorkerResult{Rank: s.Rank, Steps: 5, Digest: "abc"}); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	results, err := coord.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for r, res := range results {
		if res == nil || res.Rank != r || res.Steps != 5 {
			t.Fatalf("result[%d] = %+v; want rank %d with 5 steps", r, res, r)
		}
	}
}

// TestRendezvousDeathDetection kills one worker's control connection before
// it reports: the coordinator must resolve Wait with a typed *PeerError and
// broadcast the death to the survivor's OnPeerDown hook.
func TestRendezvousDeathDetection(t *testing.T) {
	coord := newCoordinator(t, CoordinatorConfig{World: 2})
	sessions := joinAll(t, coord, 2)
	s0, s1 := sessions[0], sessions[1]

	downCh := make(chan int, 1)
	s0.OnPeerDown(func(rank int, err error) {
		select {
		case downCh <- rank:
		default:
		}
	})

	s1.Close() // dies without reporting — a crash, not a graceful exit

	results, err := coord.Wait()
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Rank != s1.Rank {
		t.Fatalf("Wait after worker death: %v; want *PeerError{Rank: %d}", err, s1.Rank)
	}
	if results[s1.Rank] != nil {
		t.Fatalf("dead worker has a result: %+v", results[s1.Rank])
	}

	select {
	case r := <-downCh:
		if r != s1.Rank {
			t.Fatalf("OnPeerDown rank %d; want %d", r, s1.Rank)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never notified of the peer death")
	}
	var downErr *PeerError
	if err := s0.Barrier(); !errors.As(err, &downErr) || downErr.Rank != s1.Rank {
		t.Fatalf("Barrier after a broadcast death: %v; want *PeerError{Rank: %d}", err, s1.Rank)
	}
	s0.Close()
}

// TestRendezvousHeartbeatTimeout joins one worker through a raw connection
// that never heartbeats: the coordinator must declare it down within the
// heartbeat window with the typed cause.
func TestRendezvousHeartbeatTimeout(t *testing.T) {
	coord := newCoordinator(t, CoordinatorConfig{
		World:             2,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatWindow:   150 * time.Millisecond,
	})

	// Raw rank-0: joins, then goes silent (no heartbeat loop).
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := json.Marshal(joinMsg{Rank: 0, Addr: "silent"})
	if _, err := conn.Write(appendFrame(nil, frameJoin, 0, payload)); err != nil {
		t.Fatal(err)
	}

	// Real rank-1 keeps beating.
	sess, err := Join(SessionConfig{Coordinator: coord.Addr(), Rank: 1, Addr: "live"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	_, err = coord.Wait()
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Rank != 0 || !errors.Is(err, ErrHeartbeat) {
		t.Fatalf("Wait: %v; want *PeerError{Rank: 0} wrapping ErrHeartbeat", err)
	}
}

func TestRendezvousJoinTimeout(t *testing.T) {
	coord := newCoordinator(t, CoordinatorConfig{
		World:       2,
		JoinTimeout: 100 * time.Millisecond,
	})
	// Nobody joins.
	_, err := coord.Wait()
	if err == nil {
		t.Fatal("Wait resolved nil with an incomplete world")
	}
}

// TestRendezvousGracefulCloseAfterReport: a connection drop after the
// result was recorded is a normal exit, not a failure.
func TestRendezvousGracefulCloseAfterReport(t *testing.T) {
	coord := newCoordinator(t, CoordinatorConfig{World: 1})
	sessions := joinAll(t, coord, 1)
	if err := sessions[0].Report(WorkerResult{Rank: 0, Steps: 1}); err != nil {
		t.Fatal(err)
	}
	sessions[0].Close()
	if _, err := coord.Wait(); err != nil {
		t.Fatalf("Wait after graceful close: %v", err)
	}
}

// TestRendezvousErrResultFailsRun: a worker reporting a run error resolves
// Wait with a failure naming that rank.
func TestRendezvousErrResultFailsRun(t *testing.T) {
	coord := newCoordinator(t, CoordinatorConfig{World: 2})
	sessions := joinAll(t, coord, 2)
	sessions[1].Report(WorkerResult{Rank: 1, Err: "step 3: peer exploded"})
	_, err := coord.Wait()
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Rank != 1 {
		t.Fatalf("Wait: %v; want *PeerError{Rank: 1}", err)
	}
	for _, s := range sessions {
		s.Close()
	}
}

// TestRendezvousSilentAfterReportIsGraceful: a worker that reports and then
// stays silent past the heartbeat window has exited, not died. The run
// resolves nil once the other worker reports.
func TestRendezvousSilentAfterReportIsGraceful(t *testing.T) {
	const window = 100 * time.Millisecond
	coord := newCoordinator(t, CoordinatorConfig{
		World:             2,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatWindow:   window,
	})
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := json.Marshal(joinMsg{Rank: 0, Addr: "silent"})
	if _, err := conn.Write(appendFrame(nil, frameJoin, 0, payload)); err != nil {
		t.Fatal(err)
	}
	sess, err := Join(SessionConfig{Coordinator: coord.Addr(), Rank: 1, Addr: "live"})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	payload, _ = json.Marshal(WorkerResult{Rank: 0, Steps: 1})
	if _, err := conn.Write(appendFrame(nil, frameResult, 0, payload)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * window) // rank 0 stays silent well past its window
	if err := sess.Report(WorkerResult{Rank: 1, Steps: 1}); err != nil {
		t.Fatal(err)
	}
	results, err := coord.Wait()
	if err != nil {
		t.Fatalf("Wait: %v; want nil, a reported worker's silence is an exit", err)
	}
	if results[0] == nil || results[1] == nil {
		t.Fatalf("results %+v; want both ranks", results)
	}
}

// TestRendezvousCoordinatorLossFailsSessions: when the coordinator goes
// away, every session hands its own rank to the OnPeerDown hook, which is
// what stops an orphaned worker's mesh, and a Barrier in flight fails.
func TestRendezvousCoordinatorLossFailsSessions(t *testing.T) {
	coord := newCoordinator(t, CoordinatorConfig{World: 2})
	sessions := joinAll(t, coord, 2)
	hooks := make([]chan int, len(sessions))
	for i, s := range sessions {
		hooks[i] = make(chan int, 1)
		s.OnPeerDown(func(rank int, err error) { hooks[i] <- rank })
		defer s.Close()
	}
	barrier := make(chan error, 1)
	go func() { barrier <- sessions[0].Barrier() }()

	coord.Close()
	timeout := time.After(2 * time.Second)
	for i, hook := range hooks {
		select {
		case r := <-hook:
			if r != i {
				t.Fatalf("session %d: OnPeerDown rank %d; want its own rank", i, r)
			}
		case <-timeout:
			t.Fatalf("session %d: OnPeerDown never fired after the coordinator closed", i)
		}
	}
	select {
	case err := <-barrier:
		if err == nil {
			t.Fatal("Barrier returned nil with the coordinator gone")
		}
	case <-timeout:
		t.Fatal("Barrier hung with the coordinator gone")
	}
}

// TestJoinRejectsNonTableReply: a coordinator that answers a join with
// anything but the table fails the join as a malformed frame.
func TestJoinRejectsNonTableReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn, nil, ctrlMaxFrame)
		conn.Write(appendFrame(nil, frameData, 0, appendFloats(nil, []float64{1})))
		readFrame(conn, nil, ctrlMaxFrame) // hold the link until the client hangs up
	}()
	_, err = Join(SessionConfig{Coordinator: ln.Addr().String(), Rank: 0, Addr: "x"})
	if !errors.Is(err, ErrBadFrame) || strings.Contains(err.Error(), "%!") {
		t.Fatalf("Join answered with a data frame: %v; want a clean error wrapping ErrBadFrame", err)
	}
}

// FuzzCoordinatorConn opens a connection to a two-rank coordinator whose
// rank 0 has joined and writes arbitrary bytes as its opening. Nothing
// panics, Close returns and leaves no goroutine, and the connection is
// admitted exactly when its first frame is a well-formed join naming the
// one free, in-range rank, 1. The seeds are a valid join, joins for ranks
// -1, 0 and 2, an oversized header, a bad CRC and truncated JSON.
func FuzzCoordinatorConn(f *testing.F) {
	join := func(rank int) []byte {
		payload, _ := json.Marshal(joinMsg{Rank: rank, Addr: "fuzz"})
		return appendFrame(nil, frameJoin, 0, payload)
	}
	f.Add(join(1))
	f.Add(append(join(1), appendFrame(nil, frameBarrier, 0, nil)...))
	f.Add(join(-1))
	f.Add(join(0))
	f.Add(join(2))
	huge := join(1)
	binary.LittleEndian.PutUint32(huge[5:9], ctrlMaxFrame+1)
	f.Add(huge)
	badCRC := join(1)
	badCRC[9] ^= 1
	f.Add(badCRC)
	payload, _ := json.Marshal(joinMsg{Rank: 1})
	f.Add(appendFrame(nil, frameJoin, 0, payload[:len(payload)-2]))

	f.Fuzz(func(t *testing.T, data []byte) {
		check := leakcheck.Check(t)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(ln, CoordinatorConfig{World: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer check()
		defer coord.Close()

		rank0, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer rank0.Close()
		if _, err := rank0.Write(join(0)); err != nil {
			t.Fatal(err)
		}
		for waited := 0; !coord.admitted(0); waited++ {
			if waited == 5000 {
				t.Fatal("rank 0 never admitted")
			}
			time.Sleep(time.Millisecond)
		}

		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write(data)
		conn.(*net.TCPConn).CloseWrite()
		// The coordinator closes the connection once it is done with it (a
		// reset, if it left bytes unread).
		conn.SetReadDeadline(clock.After(5 * time.Second))
		if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("coordinator kept the connection")
		}

		kind, _, first, _, err := readFrame(bytes.NewReader(data), nil, ctrlMaxFrame)
		var j joinMsg
		want := err == nil && kind == frameJoin && json.Unmarshal(first, &j) == nil && j.Rank == 1
		if got := coord.admitted(1); got != want {
			t.Fatalf("rank 1 admitted = %v for % x; want %v", got, data, want)
		}
	})
}

// admitted reports whether rank has joined.
func (c *Coordinator) admitted(rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.workers[rank] != nil
}

package transport

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// newLoopbackMeshes dials a full world-member TCP mesh on 127.0.0.1 and
// returns the endpoints, cleanup included.
func newLoopbackMeshes(t *testing.T, world int, opts TCPOptions) []*TCPMesh {
	t.Helper()
	lns := make([]net.Listener, world)
	addrs := make([]string, world)
	for r := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	meshes := make([]*TCPMesh, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			meshes[r], errs[r] = DialTCPMesh(TCPConfig{Rank: r, Addrs: addrs, Listener: lns[r], Opts: opts})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d dial: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, m := range meshes {
			m.Close()
		}
	})
	return meshes
}

// TestTCPPeerDropMidTransfer is the drop-mid-all-reduce case: a receiver is
// parked in Recv when its peer's process (here: mesh) dies. The blocked
// Recv must fail with a typed *PeerError, not hang.
func TestTCPPeerDropMidTransfer(t *testing.T) {
	ms := newLoopbackMeshes(t, 2, TCPOptions{})
	done := make(chan error, 1)
	go func() {
		_, err := ms[0].Recv(1, streamProbe, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the Recv block on the empty lane
	ms[1].Close()                     // peer vanishes mid-transfer

	select {
	case err := <-done:
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Rank != 1 {
			t.Fatalf("recv after peer drop: %v; want *PeerError{Rank: 1}", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Recv hung after peer connection dropped")
	}
	if err := ms[0].Send(1, streamProbe, []float64{1}); err == nil {
		t.Fatal("send to dropped peer succeeded")
	}
}

const streamProbe uint32 = 0x51

// TestMeshHelloRejectsDataFrame: a dialer whose first frame is data, not a
// hello, fails the mesh setup as a malformed frame.
func TestMeshHelloRejectsDataFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"unused-rank0", ln.Addr().String()}
	ch := make(chan error, 1)
	go func() {
		_, err := DialTCPMesh(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln})
		ch <- err
	}()
	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendFrame(nil, frameData, 0, appendFloats(nil, []float64{0}))); err != nil {
		t.Fatal(err)
	}
	err = <-ch
	if !errors.Is(err, ErrBadFrame) || strings.Contains(err.Error(), "%!") {
		t.Fatalf("hello as a data frame: %v; want a clean error wrapping ErrBadFrame", err)
	}
}

// fakePeerConn dials rank 1's listener masquerading as rank 0 and completes
// the hello exchange, returning the raw connection for byte-level frame
// injection. The real mesh under test is rank 1 of a 2-world.
func fakePeerConn(t *testing.T, opts TCPOptions) (*TCPMesh, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{"unused-rank0", ln.Addr().String()}

	type dialed struct {
		m   *TCPMesh
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		m, err := DialTCPMesh(TCPConfig{Rank: 1, Addrs: addrs, Listener: ln, Opts: opts})
		ch <- dialed{m, err}
	}()

	conn, err := net.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	hello := appendFrame(nil, frameHello, 0, appendFloats(nil, []float64{0}))
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	d := <-ch
	if d.err != nil {
		t.Fatalf("mesh handshake with fake peer: %v", d.err)
	}
	t.Cleanup(func() { d.m.Close(); conn.Close() })
	return d.m, conn
}

// TestTCPDribbledFrame verifies framing survives arbitrarily fragmented
// reads: a frame delivered one byte at a time decodes intact.
func TestTCPDribbledFrame(t *testing.T) {
	m, conn := fakePeerConn(t, TCPOptions{})
	frame := appendFrame(nil, frameData, streamProbe, appendFloats(nil, patternFloats()))
	go func() {
		for i := range frame {
			conn.Write(frame[i : i+1])
		}
	}()
	got, err := m.Recv(0, streamProbe, make([]float64, len(bitPatterns)))
	if err != nil {
		t.Fatal(err)
	}
	requireBits(t, got)
}

// TestTCPTruncatedFrame: a frame cut off mid-payload by a dying connection
// must surface as a typed failure on the receiver, not a hang.
func TestTCPTruncatedFrame(t *testing.T) {
	m, conn := fakePeerConn(t, TCPOptions{})
	frame := appendFrame(nil, frameData, streamProbe, appendFloats(nil, []float64{1, 2, 3, 4}))
	if _, err := conn.Write(frame[:len(frame)-9]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	_, err := m.Recv(0, streamProbe, nil)
	var pe *PeerError
	if !errors.As(err, &pe) || pe.Rank != 0 {
		t.Fatalf("recv of truncated frame: %v; want *PeerError{Rank: 0}", err)
	}
}

func TestTCPChecksumCorruption(t *testing.T) {
	m, conn := fakePeerConn(t, TCPOptions{})
	frame := appendFrame(nil, frameData, streamProbe, appendFloats(nil, []float64{1, 2, 3}))
	frame[len(frame)-1] ^= 0xFF // flip a payload bit after the CRC was stamped
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_, err := m.Recv(0, streamProbe, nil)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("recv of corrupted frame: %v; want ErrChecksum", err)
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	m, conn := fakePeerConn(t, TCPOptions{MaxFrame: 64})
	frame := appendFrame(nil, frameData, streamProbe, appendFloats(nil, make([]float64, 9))) // 72 bytes > 64
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_, err := m.Recv(0, streamProbe, nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("recv of oversized frame: %v; want ErrFrameTooLarge", err)
	}
}

// TestTCPMatchesLocalFabricBitIdentical runs the same traffic pattern over
// both backends and requires byte-identical receipts — the backend
// equivalence the engines' determinism contract rests on.
func TestTCPMatchesLocalFabricBitIdentical(t *testing.T) {
	payloads := [][]float64{
		patternFloats(),
		{3.141592653589793, -2.718281828459045e-300},
		make([]float64, 257),
	}
	for i := range payloads[2] {
		payloads[2][i] = 1.0 / float64(i+3)
	}

	run := func(a, b Mesh) [][]float64 {
		var out [][]float64
		for s, p := range payloads {
			if err := a.Send(1, uint32(s+1), p); err != nil {
				t.Fatal(err)
			}
			got, err := b.Recv(0, uint32(s+1), make([]float64, len(p)))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, append([]float64(nil), got...))
		}
		return out
	}

	fab := NewLocalFabric(2, nil)
	local := run(fab.Endpoint(0), fab.Endpoint(1))
	fab.Endpoint(0).Close()
	fab.Endpoint(1).Close()
	ms := newLoopbackMeshes(t, 2, TCPOptions{})
	tcp := run(ms[0], ms[1])

	for s := range payloads {
		if len(local[s]) != len(tcp[s]) {
			t.Fatalf("stream %d: lengths differ", s)
		}
		for i := range local[s] {
			lb, tb := math.Float64bits(local[s][i]), math.Float64bits(tcp[s][i])
			if lb != tb {
				t.Fatalf("stream %d element %d: chan %016x vs tcp %016x", s, i, lb, tb)
			}
		}
	}
}

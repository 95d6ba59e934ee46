package transport

import (
	"errors"
	"testing"
	"time"
)

// meshBackends dials a two-member world on each backend; straggler, when
// positive, bounds every Recv wait. The cases below are the Mesh contract,
// so they run unchanged over both: the lane table is one, and a case that
// passed on one backend alone would say the backends had drifted apart.
var meshBackends = []struct {
	name string
	dial func(t *testing.T, straggler time.Duration) (a, b Mesh)
}{
	{"chan", func(t *testing.T, straggler time.Duration) (Mesh, Mesh) {
		fab := NewLocalFabric(2, nil)
		fab.Straggler = straggler
		t.Cleanup(func() { fab.Endpoint(0).Close(); fab.Endpoint(1).Close() })
		return fab.Endpoint(0), fab.Endpoint(1)
	}},
	{"tcp", func(t *testing.T, straggler time.Duration) (Mesh, Mesh) {
		ms := newLoopbackMeshes(t, 2, TCPOptions{Straggler: straggler})
		return ms[0], ms[1]
	}},
}

// blockedRecv starts m.Recv(from, stream) on its own goroutine and gives it
// time to find the lane empty and block. Every case below must also hold
// when the wake-up wins the race, so the sleep selects the path under test
// and decides no outcome.
func blockedRecv(m Mesh, from int, stream uint32) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := m.Recv(from, stream, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	return done
}

// requirePeerError waits for a blocked Recv's error and requires a
// *PeerError naming rank that wraps cause (nil: any cause).
func requirePeerError(t *testing.T, done <-chan error, rank int, cause error) {
	t.Helper()
	select {
	case err := <-done:
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Rank != rank || (cause != nil && !errors.Is(err, cause)) {
			t.Fatalf("blocked Recv returned %v; want *PeerError{Rank: %d} wrapping %v", err, rank, cause)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Recv not woken")
	}
}

func TestMeshConformance(t *testing.T) {
	boom := errors.New("injected death")
	cases := []struct {
		name      string
		straggler time.Duration
		run       func(t *testing.T, a, b Mesh)
	}{
		{"ordered bit-exact streams", 0, func(t *testing.T, a, b Mesh) {
			// Two streams interleaved: per-stream FIFO, streams independent.
			for _, msg := range []struct {
				stream uint32
				data   []float64
			}{{7, []float64{1}}, {9, patternFloats()}, {7, []float64{2}}} {
				if err := a.Send(1, msg.stream, msg.data); err != nil {
					t.Fatal(err)
				}
			}
			got, err := b.Recv(0, 9, make([]float64, len(bitPatterns)))
			if err != nil {
				t.Fatal(err)
			}
			requireBits(t, got)
			for want := 1.0; want <= 2; want++ {
				one, err := b.Recv(0, 7, make([]float64, 1))
				if err != nil || len(one) != 1 || one[0] != want {
					t.Fatalf("stream 7: got %v, %v; want [%v]", one, err, want)
				}
			}
		}},
		{"Fail wakes a blocked Recv", 0, func(t *testing.T, a, b Mesh) {
			done := blockedRecv(a, 1, 1)
			a.Fail(1, boom)
			requirePeerError(t, done, 1, boom)
			// Sends toward the dead rank fail typed too.
			if err := a.Send(1, 1, []float64{1}); !errors.Is(err, boom) {
				t.Fatalf("send to dead rank: %v; want the failure cause", err)
			}
		}},
		{"a lane subscribed after the failure is born poisoned", 0, func(t *testing.T, a, b Mesh) {
			a.Fail(1, boom)
			a.Fail(1, errors.New("a later cause")) // the first cause wins
			_, err := a.Recv(1, 0xBEEF, nil)       // a stream nobody has named before
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Rank != 1 || !errors.Is(err, boom) {
				t.Fatalf("recv on a lane born after the failure: %v; want *PeerError{Rank: 1} wrapping the first cause", err)
			}
		}},
		{"straggler expiry leaves the lane usable", 40 * time.Millisecond, func(t *testing.T, a, b Mesh) {
			stragglesTwice(t, a, b)
		}},
		{"Close fails peers fast", 0, func(t *testing.T, a, b Mesh) {
			done := blockedRecv(a, 1, 1)
			b.Close()
			requirePeerError(t, done, 1, nil)
			if _, err := a.Recv(1, 2, nil); err == nil {
				t.Fatal("recv from a closed peer on a fresh lane succeeded")
			}
			// The closed endpoint's own calls report the graceful cause.
			if _, err := b.Recv(0, 1, nil); !errors.Is(err, ErrClosed) {
				t.Fatalf("recv on a closed endpoint: %v; want ErrClosed", err)
			}
			if b.Close() != nil {
				t.Fatal("second Close failed")
			}
		}},
	}
	for _, be := range meshBackends {
		for _, tc := range cases {
			t.Run(be.name+"/"+tc.name, func(t *testing.T) {
				a, b := be.dial(t, tc.straggler)
				tc.run(t, a, b)
			})
		}
	}
}

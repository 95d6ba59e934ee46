package transport

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// echo answers every frame rank 1 receives from rank 0 on stream 1 until
// its mesh fails, and reports that it has returned on the channel.
func echo(m Mesh, n int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]float64, n)
		for {
			got, err := m.Recv(0, 1, buf)
			if err != nil || m.Send(0, 1, got) != nil {
				return
			}
		}
	}()
	return done
}

// TestWarmRoundTripAllocsZero counts what a warm send/recv round trip
// allocates on both ranks together (AllocsPerRun counts the process, and
// rank 1 echoes on its own goroutine): nothing, over TCP with and without a
// straggler timeout and over a channel fabric with one. The frame reader
// used to move a 16-byte header to the heap per frame, and every timed
// wait that found its lane empty built a timer.
func TestWarmRoundTripAllocsZero(t *testing.T) {
	const n = 64
	straggler := 10 * time.Second
	for _, tc := range []struct {
		name string
		dial func(t *testing.T) [2]Mesh
	}{
		{"tcp", func(t *testing.T) [2]Mesh {
			ms := newLoopbackMeshes(t, 2, TCPOptions{})
			return [2]Mesh{ms[0], ms[1]}
		}},
		{"tcp_straggler", func(t *testing.T) [2]Mesh {
			ms := newLoopbackMeshes(t, 2, TCPOptions{Straggler: straggler})
			return [2]Mesh{ms[0], ms[1]}
		}},
		{"chan_straggler", func(t *testing.T) [2]Mesh {
			fab := NewLocalFabric(2, nil)
			fab.Straggler = straggler
			return [2]Mesh{fab.Endpoint(0), fab.Endpoint(1)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := tc.dial(t)
			echoed := echo(eps[1], n)
			msg, buf := make([]float64, n), make([]float64, n)
			trip := func() {
				if err := eps[0].Send(1, 1, msg); err != nil {
					t.Fatal(err)
				}
				if _, err := eps[0].Recv(1, 1, buf); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				trip()
			}
			if allocs := testing.AllocsPerRun(200, trip); allocs != 0 {
				t.Errorf("warm round trip allocates %v times over both ranks, want 0", allocs)
			}
			eps[0].Close()
			eps[1].Close()
			<-echoed
		})
	}
}

// stragglesTwice drives a lane with a straggler timeout through what its one
// reused timer has to survive: a wait that expires, a frame after it, a
// second wait that expires (a Reset after the timer has fired), and a frame
// that arrives inside a timed wait (a Stop, then the next Reset).
func stragglesTwice(t *testing.T, from, to Mesh) {
	t.Helper()
	for round := 0; round < 2; round++ {
		_, err := to.Recv(0, 1, nil)
		var pe *PeerError
		if !errors.As(err, &pe) || !errors.Is(err, ErrStraggler) {
			t.Fatalf("round %d: recv with no sender: %v; want *PeerError wrapping ErrStraggler", round, err)
		}
		// Straggling does not mark the peer down; late traffic still flows.
		if err := from.Send(1, 1, []float64{42}); err != nil {
			t.Fatal(err)
		}
		got, err := to.Recv(0, 1, make([]float64, 1))
		if err != nil || got[0] != 42 {
			t.Fatalf("round %d: recv after straggle: %v, %v; want [42]", round, got, err)
		}
	}
	sent := make(chan error, 1)
	go func() {
		time.Sleep(5 * time.Millisecond) // well inside the timeout, well past the poll
		sent <- from.Send(1, 1, []float64{43})
	}()
	got, err := to.Recv(0, 1, make([]float64, 1))
	if err != nil || got[0] != 43 {
		t.Fatalf("frame inside a timed wait: %v, %v; want [43]", got, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if _, err := to.Recv(0, 1, nil); !errors.Is(err, ErrStraggler) {
		t.Fatalf("wait after a stopped timer: %v; want ErrStraggler", err)
	}
}

// TestLocalLanePoisonedWhilePolling poisons an in-process lane while its
// consumer is inside the yield-poll: the consumer must come back with the
// typed error on its next turn, not yield the bound out first. On one
// processor every yield of the consumer is a turn of this goroutine, so
// the turns between the poisoning and the answer count the consumer's
// yields.
func TestLocalLanePoisonedWhilePolling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	boom := errors.New("injected death")
	for _, tc := range []struct {
		name      string
		straggler time.Duration
		poison    func(*LocalFabric)
		cause     error
	}{
		{"fail", 0, func(f *LocalFabric) { f.Endpoint(0).Fail(1, boom) }, boom},
		{"close", 0, func(f *LocalFabric) { f.Endpoint(1).Close() }, ErrClosed},
		{"fail_timed", time.Minute, func(f *LocalFabric) { f.Endpoint(0).Fail(1, boom) }, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fab := NewLocalFabric(2, nil)
			fab.Straggler = tc.straggler
			defer fab.Endpoint(0).Close()
			done := make(chan error, 1)
			go func() {
				_, err := fab.Endpoint(0).Recv(1, 1, nil)
				done <- err
			}()
			const poisonAt = 5 // the consumer is a few yields into its poll
			var err error
			turns := 0
			for waiting := true; waiting; turns++ {
				if turns == poisonAt {
					tc.poison(fab)
				}
				select {
				case err = <-done:
					waiting = false
				default:
					runtime.Gosched()
				}
			}
			var pe *PeerError
			if !errors.As(err, &pe) || pe.Rank != 1 || !errors.Is(err, tc.cause) {
				t.Fatalf("recv on a poisoned lane: %v; want *PeerError{Rank: 1} wrapping %v", err, tc.cause)
			}
			if after := turns - poisonAt; after > pollYields/4 {
				t.Errorf("consumer answered %d turns after the poisoning; the poll (bound %d) does not see it", after, pollYields)
			}
		})
	}
}

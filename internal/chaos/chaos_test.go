package chaos_test

import (
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
)

// TestPlanDeterminism checks the crash schedule is a pure function of
// its inputs: equal inputs give identical faults, every fault respects the
// documented bounds, and seed 7 draws what it drew before the schedule
// became a []Fault (the grid's fault table crashes there).
func TestPlanDeterminism(t *testing.T) {
	const world, steps, crashes = 8, 100, 5
	a := chaos.Crashes(42, world, steps, crashes)
	if b := chaos.Crashes(42, world, steps, crashes); !reflect.DeepEqual(a, b) || len(a) != crashes {
		t.Fatalf("schedules diverge or miss the %d-crash budget: %+v vs %+v", crashes, a, b)
	}
	for g, f := range a {
		if f.Gen != g || f.Kind != chaos.Exit || f.Rank < 0 || f.Rank >= world || f.Step < steps/2 || f.Step >= steps {
			t.Errorf("fault %+v: want an exit in generation %d, rank in [0, %d), step in the second half [%d, %d)", f, g, world, steps/2, steps)
		}
	}
	// Distinct seeds must not all collapse onto one schedule.
	distinct := map[chaos.Fault]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		distinct[chaos.Crashes(seed, world, steps, crashes)[0]] = true
	}
	if len(distinct) < 2 {
		t.Error("8 seeds share one gen-0 crash; the schedule ignores its seed")
	}
	for _, pin := range []struct {
		world, steps int
		want         []chaos.Fault
	}{
		{2, 6, []chaos.Fault{{0, 0, 5, chaos.Exit}, {1, 0, 3, chaos.Exit}, {2, 1, 3, chaos.Exit}}},
		{4, 4, []chaos.Fault{{0, 2, 2, chaos.Exit}, {1, 0, 2, chaos.Exit}, {2, 1, 3, chaos.Exit}}},
	} {
		if got := chaos.Crashes(7, pin.world, pin.steps, 3); !reflect.DeepEqual(got, pin.want) {
			t.Errorf("seed 7, world %d, %d steps: %+v, want %+v", pin.world, pin.steps, got, pin.want)
		}
	}
}

// chaosMeshes dials a two-rank loopback mesh with rank 0's peer link
// wrapped in the given faults.
func chaosMeshes(t *testing.T, f chaos.ConnFaults) []*transport.TCPMesh {
	t.Helper()
	const world = 2
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
	optsFor := func(rank int) transport.TCPOptions {
		if rank != 0 {
			return transport.TCPOptions{}
		}
		return transport.TCPOptions{WrapConn: func(peer int, c net.Conn) net.Conn {
			return chaos.Wrap(c, f)
		}}
	}
	meshes := make([]*transport.TCPMesh, world)
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			meshes[r], errs[r] = transport.DialTCPMesh(transport.TCPConfig{
				Rank: r, Addrs: addrs, Listener: lns[r], Opts: optsFor(r),
			})
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

// TestWrapCorruptionCaughtByCRC injects a one-byte payload flip into the
// first post-hello frame rank 0 sends and checks the receiver's CRC-32C
// check rejects it: the Recv must surface transport.ErrChecksum, never
// silently deliver corrupted floats.
func TestWrapCorruptionCaughtByCRC(t *testing.T) {
	// Offset 15 lands past the 13-byte frame header, inside the
	// CRC-covered payload region.
	ms := chaosMeshes(t, chaos.ConnFaults{CorruptWrite: 1, CorruptOffset: 15})
	if err := ms[0].Send(1, 3, []float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("send: %v", err)
	}
	_, err := ms[1].Recv(0, 3, make([]float64, 4))
	if err == nil {
		t.Fatal("corrupted frame delivered without error")
	}
	if !errors.Is(err, transport.ErrChecksum) {
		t.Fatalf("recv error %v does not wrap transport.ErrChecksum", err)
	}
	var pe *transport.PeerError
	if !errors.As(err, &pe) || pe.Rank != 0 {
		t.Fatalf("recv error %v is not a *PeerError attributing rank 0", err)
	}
}

// TestWrapDropAfter checks a scheduled connection drop kills the link:
// the first write passes, then the connection hard-closes and both sides
// observe the failure instead of hanging.
func TestWrapDropAfter(t *testing.T) {
	ms := chaosMeshes(t, chaos.ConnFaults{DropAfter: 1})
	if err := ms[0].Send(1, 5, []float64{7}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	got, err := ms[1].Recv(0, 5, make([]float64, 1))
	if err != nil || got[0] != 7 {
		t.Fatalf("first recv: %v, %v", got, err)
	}
	// The second write hits the drop. The failure may surface on this
	// Send or on the receiver, depending on who notices the close first.
	sendErr := ms[0].Send(1, 5, []float64{8})
	_, recvErr := ms[1].Recv(0, 5, make([]float64, 1))
	if sendErr == nil && recvErr == nil {
		t.Fatal("neither side observed the dropped connection")
	}
	for _, err := range []error{sendErr, recvErr} {
		if err == nil {
			continue
		}
		var pe *transport.PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("drop surfaced untyped error %v", err)
		}
	}
}

// TestWrapDelayWrite checks the straggler-link fault delays every write
// by at least the configured duration without corrupting the payload.
func TestWrapDelayWrite(t *testing.T) {
	const delay = 30 * time.Millisecond
	ms := chaosMeshes(t, chaos.ConnFaults{DelayWrite: delay})
	start := time.Now()
	if err := ms[0].Send(1, 2, []float64{1, 2}); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := ms[1].Recv(0, 2, make([]float64, 2))
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("delayed write completed in %v, want >= %v", elapsed, delay)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("delayed payload corrupted: %v", got)
	}
}

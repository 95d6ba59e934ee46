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

// TestPlanDeterminism checks a Plan is a pure function of (seed,
// config): equal inputs give identical schedules, and every drawn crash
// respects the documented bounds.
func TestPlanDeterminism(t *testing.T) {
	cfg := chaos.PlanConfig{World: 8, Steps: 100, Crashes: 5}
	a := chaos.NewPlan(42, cfg)
	b := chaos.NewPlan(42, cfg)
	for g := 0; g < cfg.Crashes; g++ {
		ca, oka := a.Crash(g)
		cb, okb := b.Crash(g)
		if !oka || !okb || !reflect.DeepEqual(ca, cb) {
			t.Fatalf("gen %d: plans diverge: %+v/%v vs %+v/%v", g, ca, oka, cb, okb)
		}
		if ca.Rank < 0 || ca.Rank >= cfg.World {
			t.Errorf("gen %d: rank %d outside [0, %d)", g, ca.Rank, cfg.World)
		}
		if ca.Step < cfg.Steps/2 || ca.Step >= cfg.Steps {
			t.Errorf("gen %d: step %d outside second half [%d, %d)", g, ca.Step, cfg.Steps/2, cfg.Steps)
		}
	}
	if _, ok := a.Crash(cfg.Crashes); ok {
		t.Error("generation past the crash budget still crashes")
	}
	if _, ok := a.Crash(-1); ok {
		t.Error("negative generation reports a crash")
	}
	// Distinct seeds must not all collapse onto one schedule.
	distinct := map[chaos.CrashPoint]bool{}
	for seed := uint64(0); seed < 8; seed++ {
		c, _ := chaos.NewPlan(seed, cfg).Crash(0)
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Error("8 seeds share one gen-0 crash point; the plan ignores its seed")
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

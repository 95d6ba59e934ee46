package serve

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/leakcheck"
)

// readCounter counts the reads of the clock it wraps.
type readCounter struct {
	clock.Clock
	reads int
}

func (c *readCounter) Now() time.Duration {
	c.reads++
	return c.Clock.Now()
}

// TestSleepUntil: on a clock that tracks wall time every wait sleeps once
// (three clock reads), none ends before its target, and the median ends
// within 0.3 ms of it; the runtime's timer overshot 50 and 200 µs waits by
// 0.8-1 ms on an idle two-vCPU VM. On a frozen clock or one that advances
// per read, the wait returns after one sleep (two reads) instead of
// hanging or sleeping the gap again per tick.
func TestSleepUntil(t *testing.T) {
	for _, tc := range []struct {
		name   string
		clk    clock.Clock
		gap    time.Duration
		waits  int
		reads  int
		maxP50 time.Duration // 0: the clock's lateness says nothing
	}{
		{"real_50us", clock.NewReal(), 50 * time.Microsecond, 200, 3, 300 * time.Microsecond},
		{"real_200us", clock.NewReal(), 200 * time.Microsecond, 200, 3, 300 * time.Microsecond},
		{"frozen_sim", &clock.Sim{}, 5 * time.Millisecond, 1, 2, 0},
		{"per_read_tick", clock.NewTick(time.Microsecond), 5 * time.Millisecond, 1, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &readCounter{Clock: tc.clk}
			late := NewRecorder(tc.waits)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < tc.waits; i++ {
					target := tc.clk.Now() + tc.gap
					clk.reads = 0
					sleepUntil(clk, target)
					if clk.reads != tc.reads {
						t.Errorf("wait %d read the clock %d times, want %d", i, clk.reads, tc.reads)
						return
					}
					if tc.maxP50 == 0 {
						continue
					}
					d := tc.clk.Now() - target
					if d < 0 {
						t.Errorf("wait %d ended %v before its target", i, -d)
						return
					}
					late.Add(d)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d waits of %v did not return in 10s", tc.waits, tc.gap)
			}
			if p50, _, _ := late.Percentiles(); tc.maxP50 > 0 && p50 >= tc.maxP50 {
				t.Errorf("median overshoot %v over %d waits of %v, want under %v", p50, tc.waits, tc.gap, tc.maxP50)
			}
		})
	}
}

// TestServerIssuesOnTime: with inference free and nothing rejected, a
// server run's median latency is the load generator's issue lag plus one
// hand-off. Paced by the runtime's timer it read about 0.55 ms at 2000 QPS
// on an idle two-vCPU VM; the bound is 0.3 ms.
func TestServerIssuesOnTime(t *testing.T) {
	defer leakcheck.Check(t)()
	rep, err := Run(fakeBackend(64, fakeCtx{}), Config{
		Scenario: Server, Queries: 1000, Seed: 1, TargetQPS: 2000, QueueCap: 1000,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Rejected != 0 {
		t.Fatalf("%d of %d queries rejected behind a %d-deep queue", rep.Rejected, rep.Queries, 1000)
	}
	if rep.P50 >= 300*time.Microsecond {
		t.Errorf("p50 %v at 2000 QPS on a free backend, want under 300µs (p90 %v, p99 %v)", rep.P50, rep.P90, rep.P99)
	}
}

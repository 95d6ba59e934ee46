package transport

import (
	"reflect"
	"testing"
	"time"
)

// TestDialSchedule is the table-driven contract of the dial retry policy:
// exponential doubling capped at 32x the base, per-rank deterministic
// jitter bounded by a quarter backoff, total sleep within DialTimeout,
// and attempt count within DialRetries.
func TestDialSchedule(t *testing.T) {
	cases := []struct {
		name string
		opts TCPOptions
	}{
		{"defaults", TCPOptions{}.withDefaults()},
		{"tight_timeout", TCPOptions{DialTimeout: 100 * time.Millisecond, RetryBackoff: 25 * time.Millisecond, DialRetries: 20}.withDefaults()},
		{"timeout_below_first_backoff", TCPOptions{DialTimeout: 10 * time.Millisecond, RetryBackoff: 25 * time.Millisecond, DialRetries: 20}.withDefaults()},
		{"few_retries", TCPOptions{DialRetries: 3, RetryBackoff: time.Millisecond}.withDefaults()},
		{"long_budget", TCPOptions{DialTimeout: 10 * time.Minute, RetryBackoff: 10 * time.Millisecond, DialRetries: 50}.withDefaults()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := dialSchedule("127.0.0.1:29500", 3, tc.opts)
			if len(sched) > tc.opts.DialRetries {
				t.Fatalf("%d sleeps exceeds DialRetries %d", len(sched), tc.opts.DialRetries)
			}
			var total time.Duration
			backoff := tc.opts.RetryBackoff
			for i, d := range sched {
				lo, hi := backoff, backoff+backoff/4
				if d < lo || d >= hi+1 {
					t.Errorf("sleep %d = %v outside [%v, %v] (backoff + quarter jitter)", i, d, lo, hi)
				}
				total += d
				if backoff < 32*tc.opts.RetryBackoff {
					backoff *= 2
				}
			}
			if total > tc.opts.DialTimeout {
				t.Errorf("total sleep %v exceeds DialTimeout %v", total, tc.opts.DialTimeout)
			}
			// The backoff is capped: no single sleep exceeds 32x base plus
			// its jitter.
			capMax := 32*tc.opts.RetryBackoff + 32*tc.opts.RetryBackoff/4
			for i, d := range sched {
				if d > capMax {
					t.Errorf("sleep %d = %v exceeds 32x cap %v", i, d, capMax)
				}
			}
		})
	}
}

// TestDialScheduleDeterministicJitter checks the jitter is a pure function
// of (addr, rank, attempt) — identical inputs give identical schedules,
// distinct ranks desynchronize (the thundering-herd property).
func TestDialScheduleDeterministicJitter(t *testing.T) {
	opts := TCPOptions{}.withDefaults()
	a := dialSchedule("10.0.0.1:29500", 0, opts)
	b := dialSchedule("10.0.0.1:29500", 0, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (addr, rank) produced different schedules")
	}
	// Across a 16-rank grid, at least one pair of ranks must differ in
	// their first sleep — all-equal means no desynchronization at all.
	first := map[time.Duration]bool{}
	for rank := 0; rank < 16; rank++ {
		s := dialSchedule("10.0.0.1:29500", rank, opts)
		if len(s) == 0 {
			t.Fatal("empty schedule under default options")
		}
		first[s[0]] = true
	}
	if len(first) < 2 {
		t.Error("all 16 ranks share one first sleep; jitter does not desynchronize the herd")
	}
}

// TestDialScheduleZeroJitterBase checks the degenerate quarter-backoff==0
// case (sub-4ns base) never panics or returns negative sleeps.
func TestDialScheduleZeroJitterBase(t *testing.T) {
	opts := TCPOptions{RetryBackoff: 2 * time.Nanosecond, DialRetries: 4, DialTimeout: time.Second}.withDefaults()
	for i, d := range dialSchedule("x", 1, opts) {
		if d < 0 {
			t.Fatalf("sleep %d is negative: %v", i, d)
		}
	}
}

// TestDialJitterPinned pins the jitter to the values the hand-rolled
// FNV-1a loop produced before it moved to internal/seal: the fold over
// (addr, rank, attempt) is part of the retry schedule's determinism.
func TestDialJitterPinned(t *testing.T) {
	for _, c := range []struct {
		addr          string
		rank, attempt int
		want          time.Duration
	}{
		{"127.0.0.1:4000", 0, 1, 69172081},
		{"127.0.0.1:4000", 3, 2, 343857577},
		{"host:9", 300, 700, 229505007},
	} {
		if got := dialJitter(c.addr, c.rank, c.attempt, time.Second); got != c.want {
			t.Errorf("dialJitter(%q, %d, %d) = %d, want %d", c.addr, c.rank, c.attempt, got, c.want)
		}
	}
}

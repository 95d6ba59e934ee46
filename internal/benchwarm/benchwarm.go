// Package benchwarm brings the runtime, not the code under test, to its
// steady state before an allocation benchmark starts counting.
package benchwarm

import (
	"runtime"
	"sync"
	"time"
)

// sudogsPerP is the length of the free list of sudogs each processor keeps
// (runtime.p.sudogbuf).
const sudogsPerP = 128

// Parking fills the runtime's free lists of sudogs, the 96-byte object a
// goroutine parks on, so a goroutine that blocks on a channel after it
// returns is not counted as an allocation of the benchmark's. A sudog is
// taken from the list of the processor its goroutine parks on and returned
// to the list of the one it resumes on; an empty list refills from a shared
// one, which every GC empties, and only then allocates. Goroutines that
// mostly poll and seldom park (transport.YieldPoll) drain one processor's
// list towards another's a few sudogs at a time, so a short warm-up leaves
// the lists unsettled and a 20-step run reads the runtime's refills as 1-2
// allocs/op. Parking one list's worth of goroutines per processor at once
// puts that many sudogs into circulation: however they end up spread, no
// processor can find both its own list and the shared one empty, because
// the other lists cannot hold them all. Call it after the last GC before
// ResetTimer; a benchmark that then allocates nothing triggers no further
// one.
//
// Running that many goroutines at once also leaves an idle thread behind
// for every processor. ResetTimer stops the world to read the allocation
// count, and restarting it wakes an idle processor; with no idle thread to
// give it the runtime allocates one (six objects, 5.5 KB) just after the
// count was read. An engine whose cells poll instead of parking at every
// hand-off does not leave spare threads behind on its own.
func Parking() {
	n := sudogsPerP * runtime.GOMAXPROCS(0)
	gate := make(chan struct{})
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			ready.Done()
			<-gate
			done.Done()
		}()
	}
	ready.Wait()
	// Every goroutine is at most a few instructions short of its receive;
	// give the stragglers time to park so that each holds a sudog of its
	// own when the gate opens.
	time.Sleep(time.Millisecond)
	close(gate)
	done.Wait()
}

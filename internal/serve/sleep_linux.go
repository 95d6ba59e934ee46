package serve

import (
	"syscall"
	"time"
)

// sleepFor blocks the calling goroutine in nanosleep(2) for d. time.Sleep
// waits on the runtime's timer, and when every processor is idle the
// netpoller rounds a wait under a millisecond up to one; the kernel's
// timer wakes within tens of microseconds. The goroutine sits in the
// kernel meanwhile, so the wait spins no processor. A signal ends the call
// early with EINTR and writes the time left back, which is slept again.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

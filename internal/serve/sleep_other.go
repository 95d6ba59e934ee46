//go:build !linux

package serve

import "time"

// sleepFor waits d on the runtime's timer, which may overshoot a wait
// under a millisecond by up to one.
func sleepFor(d time.Duration) { time.Sleep(d) }

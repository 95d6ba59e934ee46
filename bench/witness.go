package main

import (
	"sort"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
)

// The sandbox is two vCPUs of a shared host. What else runs on the host
// slows floating-point code on either vCPU to about 0.55-0.7 of its speed,
// each vCPU on its own, in spells of a twentieth of a second to several
// minutes, and the guest is told nothing: no steal time is booked, and an
// integer spin loop does not feel it. A step then takes 4.5 or 6.9 ms, and
// which of the two is the host's doing. No quantile of a run's samples
// survives that: whichever one is picked flips from the fast value to the
// slow one as the slow spells grow past it.
//
// The witness is how the benchmark tells the spells apart. It is a fixed
// piece of floating-point work that calls nothing of the program under
// test (a 64x64 matrix product, an eighth of a millisecond), run between
// the units of work being timed, on the calling goroutine and, for units
// that keep both cores busy, on a second goroutine at the same time. A
// reading is how long it took. The fastest readings of a run are the
// host's undisturbed speed; a unit whose readings before and after are
// both within quietTol of that ran on an undisturbed host, and the
// end-to-end metrics are taken over those units alone. Which units count
// is decided by the witness, never by the units' own times, so a change
// to the program cannot move the selection, only the values.
//
// Of the undisturbed units the metrics report the quartile on the fast
// side, not the median: a spell that starts and ends between two readings
// goes unseen, so some of the chosen units were disturbed after all, and
// a disturbance only ever adds time. Over ten seeds, while the host went
// from one kind of hour to the other, the quartile spread by 2-13 % and
// the median by 2-20 % (bench/README.md has the table).
const (
	witnessN = 64 // the kernel multiplies two witnessN x witnessN matrices: about 0.13 ms

	// quietTol is how far above the run's reference reading a unit's
	// readings may be. The disturbed readings sit at 1.5-2.2 of the
	// reference. The undisturbed ones sit within 1.05 of it between steps
	// and at 1.1-1.3 after a set-up or an epoch, which leave the witness's
	// working set out of the caches; few readings fall between 1.3 and 1.5.
	quietTol = 1.3
	// refQuantile of a run's readings is its reference: low enough that a
	// run in which 99 readings in 100 are disturbed (the worst minutes seen)
	// still finds the host's own speed. The kernel has a hard floor, what
	// the core can do, so the low tail is tight: there are no lucky readings.
	refQuantile = 0.005
	// quietFloor is the fewest samples a quartile is taken over. When fewer
	// were undisturbed, the least disturbed make up the number.
	quietFloor = 5
)

// witnessLane is one goroutine's working set.
type witnessLane struct{ a, b, c []float64 }

func newWitnessLane() witnessLane {
	l := witnessLane{make([]float64, witnessN*witnessN), make([]float64, witnessN*witnessN), make([]float64, witnessN*witnessN)}
	for i := range l.a {
		l.a[i] = float64(i%7) * 0.25
		l.b[i] = float64(i%5) * 0.5
	}
	return l
}

// work is the witness kernel: one product c = a x b, row by row.
// It is short because the host's undisturbed moments are: in a disturbed
// hour most last under 2 ms, and a reading has to fit inside one.
func (l *witnessLane) work() {
	const n = witnessN
	for i := 0; i < n; i++ {
		ci := l.c[i*n : i*n+n]
		for j := range ci {
			ci[j] = 0
		}
		for k := 0; k < n; k++ {
			aik := l.a[i*n+k]
			bk := l.b[k*n : k*n+n]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
}

// witness takes readings for one pass. A nil witness (the traced pass)
// reads 0 everywhere, and every sample then counts as undisturbed.
type witness struct {
	clk      clock.Clock
	own, far witnessLane
	req      chan struct{}
	res      chan time.Duration
	done     chan struct{} // closed when the second goroutine has returned
	readings []time.Duration
}

func newWitness(clk clock.Clock) *witness {
	w := &witness{
		clk: clk, own: newWitnessLane(), far: newWitnessLane(),
		req: make(chan struct{}), res: make(chan time.Duration), done: make(chan struct{}),
		readings: make([]time.Duration, 0, 1<<16),
	}
	go func() {
		defer close(w.done)
		for range w.req {
			t0 := w.clk.Now()
			w.far.work()
			w.res <- w.clk.Now() - t0
		}
	}()
	return w
}

// close ends the second goroutine and waits for it.
func (w *witness) close() {
	if w != nil {
		close(w.req)
		<-w.done
	}
}

// read takes one reading on the calling goroutine and, when cores is 2,
// another on the second goroutine at the same time, and returns the
// slower: a unit that keeps two cores busy needs both undisturbed.
func (w *witness) read(cores int) time.Duration {
	if w == nil {
		return 0
	}
	if cores > 1 {
		w.req <- struct{}{}
	}
	t0 := w.clk.Now()
	w.own.work()
	d := w.clk.Now() - t0
	w.readings = append(w.readings, d)
	if cores > 1 {
		far := <-w.res
		w.readings = append(w.readings, far)
		if far > d {
			d = far
		}
	}
	return d
}

// reference is the run's undisturbed reading.
func (w *witness) reference() time.Duration {
	if w == nil || len(w.readings) == 0 {
		return 0
	}
	return time.Duration(quantile(w.readings, refQuantile, time.Nanosecond))
}

// sample is one timed unit or throughput window with the slowest witness
// reading taken around it. A score of 0 marks a sample the witness does
// not judge, because it waits on a timer or a disk and not on the cores.
type sample struct {
	v     float64
	score time.Duration
}

func slower(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// undisturbed returns the values of the samples whose score is within
// quietTol of ref. When fewer than quietFloor are, the samples with the
// lowest scores make up that number (all of them, when there are fewer).
func undisturbed(samples []sample, ref time.Duration) []float64 {
	limit := time.Duration(float64(ref) * quietTol)
	var vs []float64
	for _, s := range samples {
		if s.score <= limit {
			vs = append(vs, s.v)
		}
	}
	if len(vs) >= quietFloor || len(vs) == len(samples) {
		return vs
	}
	byScore := append([]sample(nil), samples...)
	sort.SliceStable(byScore, func(i, j int) bool { return byScore[i].score < byScore[j].score })
	if len(byScore) > quietFloor {
		byScore = byScore[:quietFloor]
	}
	vs = vs[:0]
	for _, s := range byScore {
		vs = append(vs, s.v)
	}
	return vs
}

// quietQuantile is the q-quantile over the undisturbed samples, and how
// many there were.
func quietQuantile(samples []sample, ref time.Duration, q float64) (float64, int) {
	vs := undisturbed(samples, ref)
	return core.Quantile(vs, q), len(vs)
}

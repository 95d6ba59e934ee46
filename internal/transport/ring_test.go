package transport

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/benchwarm"
	"repro/internal/tensor"
)

// ringRows builds `rows` gradient rows of flatLen elements with signed
// zeros and denormals where an add could lose them: element 0 is −0 in
// every row (the sum from +0 must come out +0), element 1 is −0 once and
// +0 after, and the last element sums denormals.
func ringRows(rng *tensor.RNG, rows, flatLen int) [][]float64 {
	out := make([][]float64, rows)
	for m := range out {
		row := tensor.Randn(rng, 1, flatLen).Data
		row[0] = math.Copysign(0, -1)
		if flatLen > 1 {
			row[1] = math.Copysign(0, -1)
			if m > 0 {
				row[1] = 0
			}
		}
		if flatLen > 2 {
			row[flatLen-1] = float64(m+1) * 5e-324
		}
		out[m] = row
	}
	return out
}

// chanRing builds a k-member ring over a LocalFabric of its own, the way the
// engine builds a one-stage group's: every member's endpoint, NewRingOver.
// The ring does not own the endpoints; a test that leaves blocked members
// behind closes them itself.
func chanRing(k, chunks, flatLen int, pool *arena.Arena) *Ring {
	fab := NewLocalFabric(k, pool)
	eps := make([]Mesh, k)
	for w := range eps {
		eps[w] = fab.Endpoint(w)
	}
	return NewRingOver(eps, chunks, flatLen, pool)
}

// scalarAscendingSum is the reduction's definition: every element summed
// from +0 over the rows in ascending order, one scalar add at a time.
func scalarAscendingSum(rows [][]float64, flatLen int) []float64 {
	sum := make([]float64, flatLen)
	for i := range sum {
		s := 0.0
		for _, row := range rows {
			s += row[i]
		}
		sum[i] = s
	}
	return sum
}

// raggedBounds[k] splits seven rows over k members unevenly, with a member
// that contributes nothing where there are members to spare: member w owns
// rows [raggedBounds[k][w], raggedBounds[k][w+1]).
var raggedBounds = [][]int{1: {0, 7}, 2: {0, 2, 7}, 3: {0, 1, 1, 7}, 4: {0, 3, 3, 4, 7}}

// TestRingAllReduceMatchesScalarOracle holds the lane-wise ring to the
// scalar ascending sum bit for bit at every member: member counts 1-4,
// chunk counts that put chunk offsets off the four-lane grid, flat lengths
// around the NCF gradient's 4329, uneven and empty row ranges, over the
// channel fabric and over a loopback TCP mesh.
func TestRingAllReduceMatchesScalarOracle(t *testing.T) {
	const rows = 7
	pool := arena.New()
	for k := 1; k <= 4; k++ {
		backends := []string{"chan"}
		var tcp []Mesh
		if k > 1 {
			backends = append(backends, "tcp")
			for _, m := range newLoopbackMeshes(t, k, TCPOptions{}) {
				tcp = append(tcp, m)
			}
		}
		bounds := raggedBounds[k]
		for _, backend := range backends {
			for _, chunks := range []int{1, k, 7} {
				for _, flatLen := range []int{1, 5, 4329, 4331} {
					label := fmt.Sprintf("%s K=%d chunks=%d flatLen=%d bounds=%v", backend, k, chunks, flatLen, bounds)
					var ring *Ring
					if backend == "tcp" {
						ring = NewRingOver(tcp, chunks, flatLen, pool)
					} else {
						ring = chanRing(k, chunks, flatLen, pool)
					}
					grads := ringRows(tensor.NewRNG(uint64(100*k+flatLen)), rows, flatLen)
					want := scalarAscendingSum(grads, flatLen)

					aggs := make([][]float64, k)
					errs := make([]error, k)
					var wg sync.WaitGroup
					for w := 0; w < k; w++ {
						aggs[w] = tensor.Randn(tensor.NewRNG(9), 1, flatLen).Data // stale values the round must overwrite
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							errs[w] = ring.AllReduce(w, grads, bounds[w], bounds[w+1], aggs[w])
						}(w)
					}
					wg.Wait()
					ring.Close()
					for w := 0; w < k; w++ {
						if errs[w] != nil {
							t.Fatalf("%s: member %d: %v", label, w, errs[w])
						}
						for i, got := range aggs[w] {
							if math.Float64bits(got) != math.Float64bits(want[i]) {
								t.Fatalf("%s: member %d element %d is %v (%016x), scalar ascending sum %v (%016x)",
									label, w, i, got, math.Float64bits(got), want[i], math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

// TestRingGatherRefusesOverlongFrame plays member 1 of a two-member ring by
// hand and answers member 0's first chunk with a gather frame one element
// too long. Member 0 receives gather chunks straight into its aggregate;
// the three-index slice it passes must send the long frame to a fresh
// buffer, to be refused as ErrBadFrame, and not one element past the chunk.
func TestRingGatherRefusesOverlongFrame(t *testing.T) {
	const flatLen, chunks = 10, 2
	fab := NewLocalFabric(2, nil)
	peer := fab.Endpoint(1)
	defer peer.Close()
	ring := NewRingOver([]Mesh{fab.Endpoint(0), nil}, chunks, flatLen, arena.New())
	defer ring.Close()
	defer fab.Endpoint(0).Close()

	_, hi := ring.ChunkRange(0)
	go func() {
		// Take the reduce chunks so the round reaches its gather leg, then
		// send chunk 0 with hi+1 elements.
		for c := 0; c < chunks; c++ {
			if _, err := peer.Recv(0, streamReduce, make([]float64, flatLen)); err != nil {
				return
			}
		}
		long := make([]float64, hi+1)
		for i := range long {
			long[i] = 99
		}
		peer.Send(0, streamGather, long) // member 0's error is the assertion
	}()

	const canary = 7.5
	agg := make([]float64, flatLen)
	for i := range agg {
		agg[i] = canary
	}
	rows := [][]float64{make([]float64, flatLen), nil}
	err := ring.AllReduce(0, rows, 0, 1, agg)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("gather frame of %d elements for a %d-element chunk: %v; want ErrBadFrame", hi+1, hi, err)
	}
	for i := hi; i < flatLen; i++ {
		if agg[i] != canary {
			t.Fatalf("agg[%d] = %v after the refused frame: written past the chunk's end %d", i, agg[i], hi)
		}
	}
}

// BenchmarkRingAllReduce times one round at the NCF gradient's length and
// the benchmark's eight rows: the one-member arm every serial and pipeline
// engine runs, and member 0 of a two-member ring over the channel fabric
// with member 1 on its own goroutine. Warm rounds allocate nothing.
func BenchmarkRingAllReduce(b *testing.B) {
	const flatLen, rows, warm = 4329, 8, 10
	for _, k := range []int{1, 2} {
		b.Run(fmt.Sprintf("k%d_n%d_rows%d", k, flatLen, rows), func(b *testing.B) {
			ring := chanRing(k, 0, flatLen, arena.New())
			defer ring.Close()
			grads := ringRows(tensor.NewRNG(3), rows, flatLen)
			per := rows / k
			var wg sync.WaitGroup
			for w := 1; w < k; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					agg := make([]float64, flatLen)
					for i := 0; i < warm+b.N; i++ {
						if err := ring.AllReduce(w, grads, w*per, (w+1)*per, agg); err != nil {
							ring.Abort(w, err)
							return
						}
					}
				}(w)
			}
			agg := make([]float64, flatLen)
			round := func() {
				if err := ring.AllReduce(0, grads, 0, per, agg); err != nil {
					ring.Abort(0, err)
					b.Fatal(err)
				}
			}
			for i := 0; i < warm; i++ {
				round()
			}
			benchwarm.Parking()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			wg.Wait()
		})
	}
}

package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 5, 64, 1000} {
			hits := make([]int32, n)
			p.For(n, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("workers=%d n=%d: bad shard [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForCostRunsTinyLoopsInline(t *testing.T) {
	p := NewPool(8)
	// A loop whose total cost is far below the fork threshold must run on
	// the calling goroutine as a single body(0, n) shard.
	calls := 0
	p.ForCost(16, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 16 {
			t.Fatalf("inline shard [%d,%d), want [0,16)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("tiny loop forked %d shards", calls)
	}
}

func TestSerialPoolRunsInline(t *testing.T) {
	p := NewPool(1)
	var inBody bool
	p.For(1000, func(lo, hi int) {
		inBody = true
		if lo != 0 || hi != 1000 {
			t.Fatalf("serial pool shard [%d,%d)", lo, hi)
		}
	})
	if !inBody {
		t.Fatal("body never ran")
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int64
	p.For(8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.For(8, func(lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			})
		}
	})
	if total.Load() != 64 {
		t.Fatalf("nested loops covered %d indices, want 64", total.Load())
	}
}

func TestWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, want)
	}
	p.SetWorkers(-5)
	if got, want := p.Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Workers() after SetWorkers(-5) = %d, want %d", got, want)
	}
}

func TestWorth(t *testing.T) {
	p := NewPool(1)
	if p.Worth(1e12) {
		t.Fatal("a 1-worker pool must never report parallelism worthwhile")
	}
	p.SetWorkers(4)
	if p.Worth(10) {
		t.Fatal("tiny loops are not worth forking")
	}
	if !p.Worth(1e9) {
		t.Fatal("large loops on a wide pool are worth forking")
	}
}

func TestForTilesCoversEveryCellExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, sh := range [][2]int{
			{0, 10}, {10, 0}, {1, 1}, {1, 1000}, {1000, 1},
			{7, 13}, {64, 64}, {8, 512}, {512, 8},
		} {
			rows, cols := sh[0], sh[1]
			hits := make([]int32, rows*cols)
			// itemCost high enough that every shape is allowed to fork.
			p.ForTiles(rows, cols, 1e6, func(r0, r1, c0, c1 int) {
				if r0 < 0 || r1 > rows || r0 > r1 || c0 < 0 || c1 > cols || c0 > c1 {
					t.Errorf("workers=%d %dx%d: bad tile [%d,%d)x[%d,%d)",
						workers, rows, cols, r0, r1, c0, c1)
				}
				for i := r0; i < r1; i++ {
					for j := c0; j < c1; j++ {
						atomic.AddInt32(&hits[i*cols+j], 1)
					}
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d %dx%d: cell %d covered %d times", workers, rows, cols, i, h)
				}
			}
		}
	}
}

func TestForTilesRunsTinyLoopsInline(t *testing.T) {
	p := NewPool(8)
	calls := 0
	p.ForTiles(16, 16, 1, func(r0, r1, c0, c1 int) {
		calls++
		if r0 != 0 || r1 != 16 || c0 != 0 || c1 != 16 {
			t.Fatalf("inline tile [%d,%d)x[%d,%d), want the whole space", r0, r1, c0, c1)
		}
	})
	if calls != 1 {
		t.Fatalf("tiny 2-D loop forked %d tiles", calls)
	}
	p.SetWorkers(1)
	calls = 0
	p.ForTiles(1000, 1000, 1e6, func(r0, r1, c0, c1 int) { calls++ })
	if calls != 1 {
		t.Fatalf("serial pool forked %d tiles", calls)
	}
}

// TestForTilesSplitsShortAndSkinny is the utilization fix the 2-D
// scheduler exists for: a worker pool wider than the short dimension must
// still receive at least one tile per worker by splitting the other
// dimension — row-only sharding would leave (workers − rows) workers idle
// on the Transformer's short-tall shapes.
func TestForTilesSplitsShortAndSkinny(t *testing.T) {
	p := NewPool(8)
	for _, sh := range [][2]int{{2, 4096}, {4096, 2}, {1, 8192}} {
		rows, cols := sh[0], sh[1]
		var tiles atomic.Int32
		p.ForTiles(rows, cols, 1e6, func(r0, r1, c0, c1 int) { tiles.Add(1) })
		if int(tiles.Load()) < 8 {
			t.Errorf("%dx%d on 8 workers produced %d tiles; want >= 8 so no worker starves",
				rows, cols, tiles.Load())
		}
	}
}

func TestDefaultPoolHelpers(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(2)
	if Workers() != 2 {
		t.Fatalf("Workers() = %d after SetWorkers(2)", Workers())
	}
	sum := make([]int32, 100)
	For(100, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&sum[i], 1)
		}
	})
	ForCost(100, 1e6, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&sum[i], 1)
		}
	})
	ForTiles(10, 10, 1e6, func(r0, r1, c0, c1 int) {
		for i := r0; i < r1; i++ {
			for j := c0; j < c1; j++ {
				atomic.AddInt32(&sum[i*10+j], 1)
			}
		}
	})
	for i, h := range sum {
		if h != 3 {
			t.Fatalf("index %d covered %d times, want 3", i, h)
		}
	}
}

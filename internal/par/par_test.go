package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForSequentialPreservesOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var got []int
	For(5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("GOMAXPROCS=1 order = %v, want ascending", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("visited %d indexes, want 5", len(got))
	}
}

func TestForParallelVisitsAllOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const n = 200
	seen := make([]int32, n)
	For(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForBoundsConcurrency(t *testing.T) {
	const workers = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	var mu sync.Mutex
	inFlight, peak := 0, 0
	For(50, func(int) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
		}
		mu.Unlock()
		mu.Lock()
		inFlight--
		mu.Unlock()
	})
	if peak > workers {
		t.Fatalf("peak concurrency %d exceeds GOMAXPROCS %d", peak, workers)
	}
}

func TestForEmpty(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, -1, -100} {
				For(n, func(i int) { t.Fatalf("GOMAXPROCS=%d n=%d: fn(%d) called", procs, n, i) })
			}
		}()
	}
}

func TestForNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const outer, inner = 17, 33
	var seen [outer][inner]int32
	For(outer, func(i int) {
		For(inner, func(j int) { atomic.AddInt32(&seen[i][j], 1) })
	})
	for i := range seen {
		for j, c := range seen[i] {
			if c != 1 {
				t.Fatalf("(%d, %d) visited %d times", i, j, c)
			}
		}
	}
}

// forAllocsPerCall is what one For call allocates at GOMAXPROCS 4,
// averaged over runs. testing.AllocsPerRun would pin GOMAXPROCS to 1, where
// For never starts a worker, so the malloc count is read directly.
func forAllocsPerCall(n int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const runs = 200
	fn := func(int) {}
	For(n, fn) // warm the runtime's free goroutines
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		For(n, fn)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// forAllocCeiling is TestForAllocBudget's: one pool plus one goroutine
// start per extra worker at GOMAXPROCS 4 (4.0–4.3, go1.24: a worker's
// goroutine is not always recycled before the next call starts one), + 1.
// For cost 2 per item (18 at n = 8, 8,195 at n = 4,096) while every index
// had a goroutine and a semaphore slot of its own.
const forAllocCeiling = 5

// TestForAllocBudget: a For call allocates per call, not per item — the
// same count for 8 indexes as for 4,096.
func TestForAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	small, large := forAllocsPerCall(8), forAllocsPerCall(4096)
	t.Logf("allocs per For call at GOMAXPROCS 4: n=8 %.2f, n=4096 %.2f", small, large)
	if math.Abs(small-large) >= 1 {
		t.Errorf("n=8 allocates %.2f per call, n=4096 %.2f: allocation grows with n", small, large)
	}
	if small > forAllocCeiling || large > forAllocCeiling {
		t.Errorf("%.2f and %.2f allocs per For call, ceiling %d", small, large, forAllocCeiling)
	}
}

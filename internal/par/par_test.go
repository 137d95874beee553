package par

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"qoadvisor/internal/budget"
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

// TestForAllocBudget: a For call allocates per call, not per item — the
// same count for 8 indexes as for 4,096 — counted at GOMAXPROCS 4, since
// at GOMAXPROCS 1, where testing.AllocsPerRun counts, For starts no
// worker.
func TestForAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	calls := func(n int) func() int {
		For(n, func(int) {}) // warm the runtime's free goroutines
		return func() int {
			for range 200 {
				For(n, func(int) {})
			}
			return 200
		}
	}
	small := budget.Mallocs(t, "par.for.8", calls(8))
	large := budget.Mallocs(t, "par.for.4096", calls(4096))
	budget.Gate(t, "par.for.growth", func() float64 { return math.Abs(small - large) })
}

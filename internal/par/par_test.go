package par

import (
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

// Package par provides the bounded worker-pool primitive the pipeline's
// parallel stages (production runs, feature generation, recompilation,
// flighting) and the serve rank fan-out share.
//
// A call of For is one fixed pool: its allocations depend on GOMAXPROCS,
// not on n — no goroutine, closure or semaphore slot per item.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on a pool of min(GOMAXPROCS, n)
// workers, the calling goroutine being one of them; the workers take
// indexes from one shared counter, so a slow item holds up only its own
// worker. At GOMAXPROCS 1, or when n <= 1, it runs strictly sequentially
// in index order on the calling goroutine — the mode the pipeline's
// "bit-identical at any GOMAXPROCS" guarantee is checked against — so
// otherwise fn must be order-independent and safe for concurrent
// invocation. For returns when every fn call has.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p := &pool{n: int64(n), fn: fn}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.work()
	}
	p.run()
	p.wg.Wait()
}

// pool is one For call's shared state, allocated once per call.
type pool struct {
	next atomic.Int64 // the next index to hand out
	n    int64
	fn   func(int)
	wg   sync.WaitGroup // the workers other than the caller
}

// run calls fn on indexes from the counter until it passes n.
func (p *pool) run() {
	for {
		i := p.next.Add(1) - 1
		if i >= p.n {
			return
		}
		p.fn(int(i))
	}
}

func (p *pool) work() {
	defer p.wg.Done()
	p.run()
}

// Package par provides the bounded worker-pool primitive the pipeline's
// parallel stages (production runs, feature generation, recompilation,
// flighting) and the serve rank fan-out share.
package par

import (
	"runtime"
	"sync"
)

// For runs fn(i) for every i in [0, n) on a worker pool bounded to
// GOMAXPROCS goroutines. At GOMAXPROCS 1, or when n <= 1, it runs
// strictly sequentially in index order on the calling goroutine — the
// mode the pipeline's "bit-identical at any GOMAXPROCS" guarantee is
// checked against — so otherwise fn must be order-independent and safe
// for concurrent invocation. For returns when every fn call has.
func For(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

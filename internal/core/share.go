package core

import "qoadvisor/internal/par"

// shareBy computes do once for each distinct key among items 0..n-1 and
// hands every item the value computed for the first item with its key:
// a day's recurrences of one job instance share one compilation. Items
// with one key need not sit next to each other. The computations fan out
// on a GOMAXPROCS-bounded pool, so do must be safe to call concurrently;
// as long as it is a pure function of its item's key, the values do not
// depend on GOMAXPROCS.
func shareBy[K comparable, V any](n int, key func(i int) K, do func(i int) V) []V {
	first := make([]int, n)
	seen := make(map[K]int, n)
	for i := range first {
		k := key(i)
		j, ok := seen[k]
		if !ok {
			j = i
			seen[k] = i
		}
		first[i] = j
	}
	out := make([]V, n)
	par.For(n, func(i int) {
		if first[i] == i {
			out[i] = do(i)
		}
	})
	for i, j := range first {
		out[i] = out[j]
	}
	return out
}

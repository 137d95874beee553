package core

import "qoadvisor/internal/par"

// groupBy links the items 0..n-1 that share a key: first[i] is the first
// item with i's key, and next[i] the next item after i with it, or -1.
// Items with one key need not sit next to each other.
func groupBy[K comparable](n int, key func(i int) K) (first, next []int) {
	links := make([]int, 2*n)
	first, next = links[:n:n], links[n:]
	last := make(map[K]int, n)
	for i := range first {
		k := key(i)
		first[i], next[i] = i, -1
		if j, ok := last[k]; ok {
			first[i], next[j] = first[j], i
		}
		last[k] = i
	}
	return first, next
}

// shareBy computes do once for each distinct key among items 0..n-1 and
// hands every item the value computed for the first item with its key:
// a day's recurrences of one job instance share one compilation. The
// computations fan out on a GOMAXPROCS-bounded pool, so do must be safe
// to call concurrently; as long as it is a pure function of its item's
// key, the values do not depend on GOMAXPROCS.
func shareBy[K comparable, V any](n int, key func(i int) K, do func(i int) V) []V {
	first, _ := groupBy(n, key)
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

// Package cache provides the singleflight FIFO memo behind the offline
// pipeline's job-instance memo: workload's instance per template and
// date, and, inside each instance, optimizer's rewrites per rule
// configuration.
package cache

import (
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits   uint64
	Misses uint64
	Size   int
	Max    int
}

// FIFO memoizes a compute function by key. Concurrent callers of one key
// share a single computation (singleflight); past max entries the oldest
// keys are evicted, costing only a recompute on re-request. Results —
// values and errors alike — are memoized until eviction, and cached
// values are shared across goroutines, so callers must treat them as
// immutable.
type FIFO[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*entry[V]
	order   []K // insertion order, for FIFO eviction
	hits    uint64
	misses  uint64
}

type entry[V any] struct {
	once sync.Once
	v    V
	err  error
	// done marks that compute returned normally; it stays false when
	// compute panics, so waiters and later callers can tell a poisoned
	// entry from a legitimate (zero, nil) result.
	done bool
}

// NewFIFO builds a cache holding at most max entries (max must be
// positive; wrappers apply their own defaults).
func NewFIFO[K comparable, V any](max int) *FIFO[K, V] {
	return &FIFO[K, V]{max: max, entries: make(map[K]*entry[V])}
}

// Do returns the memoized result for key, running compute on first use.
// compute runs outside the cache lock: a slow computation must not
// serialize unrelated lookups, and in-flight computations keep running
// for their waiters even if the entry is evicted meanwhile.
//
// If compute panics, the panic propagates to the computing caller, the
// poisoned entry is dropped so a later Do retries instead of serving a
// spurious (zero, nil), and concurrent waiters get an error. The dropped
// entry's key lingers in the eviction order; if the key is re-requested
// the stale slot can at worst evict its replacement early — a recompute,
// never a wrong result.
func (c *FIFO[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
		e = &entry[V]{}
		c.entries[key] = e
		c.order = append(c.order, key)
		c.evictLocked()
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if !e.done {
				c.mu.Lock()
				if c.entries[key] == e {
					delete(c.entries, key)
				}
				c.mu.Unlock()
			}
		}()
		e.v, e.err = compute()
		e.done = true
	})
	if !e.done {
		var zero V
		return zero, fmt.Errorf("cache: computation for key %v panicked", key)
	}
	return e.v, e.err
}

// evictLocked drops the oldest entries until the cache fits its cap.
func (c *FIFO[K, V]) evictLocked() {
	for len(c.order) > c.max {
		victim := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, victim)
	}
}

// Stats snapshots the hit/miss counters and current occupancy.
func (c *FIFO[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Size: len(c.entries), Max: c.max}
}

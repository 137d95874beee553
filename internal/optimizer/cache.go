package optimizer

import (
	"sync"
	"sync/atomic"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// compileCacheSize bounds one CompileCache's certificates. A job
// instance's cache holds the configurations its days compile it under —
// production's, the span fix point's, the recommended flip's and the
// flighting arms' — which is at most nine on the ledger's population.
const compileCacheSize = 16

// compileCacheInline is how many certificates a CompileCache holds in
// itself before its list moves to the heap, and compileCacheSpill the
// room the list gets there. Over the ten days of the ledger's offline leg
// (222 templates, 4,500 jobs) an instance's memo makes 1.43 certificates
// on average, and 222 of the 239 memos live at its end hold one. With one
// inline certificate a one-rewrite memo takes no more memory than a cache
// pointing at a heap list of one; two would add a certificate's 128 bytes
// to every instance for 0.07 fewer allocations per job (qobench
// pipeline_day at GOMAXPROCS 1: 4.00 per job with one, 3.94 with two, and
// heap_live_mb +0.2 % with two).
const (
	compileCacheInline = 1
	compileCacheSpill  = 4
)

// CompileCache memoizes the logical phase of Optimize — the rewrite
// fixpoint plus the experimental-validity check — for one input graph
// under many rule configurations. The daily pipeline compiles one job
// instance under several configurations (production, the span fix point,
// the recommended flip, flighting's arms, the previous day's validation
// run); the cache makes every compilation whose rewrite it can prove
// identical to one already made reuse that one immutable rewritten DAG and
// re-run only physical lowering. It keeps no Result: a caller that
// compiles one instance under one configuration many times in a batch —
// production's recurrences of a day, the advisor's jobs that drew one
// flip — shares that one compilation for as long as the batch's output
// lives (internal/core), where a memo here would keep plans for as long
// as the instance. Each Optimize gets a fresh Plan, which nothing downstream
// writes to: exec.Run only reads a plan, and Recardinalize writes into
// the caller's dst.
//
// The cache is a list of reuse certificates. A rewrite reads the
// configuration only through ruleTable.pick, so it records the rules it
// asked about, and any configuration that enables exactly the same of
// those rules takes the same rewrite path to the same graph, signature and
// error (parametric query optimization's plan reuse, along the
// configuration axis only). The certificate made for a configuration
// always covers it, so a repeat is a reuse like any other. A lookup takes
// the cache's mutex, reuses the newest certificate of the same graph that
// the configuration satisfies, and otherwise rewrites while still holding
// it: concurrent lookups of one instance wait for that rewrite and reuse
// it, and lookups of different instances never meet. The list is FIFO
// past compileCacheSize, and an eviction only costs a recompute.
//
// The zero CompileCache is an empty cache, ready to use; it must not be
// copied once used. Its first certificate lives in the cache itself, so a
// memo of one rewrite allocates no list; a second moves the list to the
// heap, whole, with room for compileCacheSpill.
//
// A cache keeps each rewrite it adds as a copy of the rewrite's result: in
// the scope.Store KeepIn gave it — workload gives every instance of a
// batch its batch's store, so a day's kept rewrites take a few chunks —
// or, without one, as a Graph.Clone on the heap, four allocations each. A
// copy in a store lives as long as the store, an evicted certificate's
// too.
//
// A cache belongs to one job instance: workload holds it by value in the
// instance's facts, beside the instance's graph header and statistics,
// and (*workload.Job).CompileOptions hands the three out together, so
// every compilation through a cache sees the same statistics and no
// certificate need record them. Cached rewritten graphs are shared across
// goroutines; nothing downstream of the rewrite mutates logical nodes
// (verified under -race).
type CompileCache struct {
	mu sync.Mutex
	// certs is the list, oldest first, at most compileCacheSize long: a
	// slice of inline until it outgrows it, then of a heap array.
	certs        []certificate
	inline       [compileCacheInline]certificate
	hits, misses uint64
	// store holds the rewrites the cache keeps, or is nil for the heap.
	store *scope.Store
}

// A certificate is one rewrite of graph with what it read of its
// configuration: the rules it asked about and which of them were on. A
// configuration cfg reuses it when cfg ∩ asked == on.
type certificate struct {
	graph *scope.Graph
	asked rules.Bitset
	on    rules.Bitset
	work  *scope.Graph
	sig   rules.Signature
	err   error
}

// CompileCacheStats counts a cache's lookups: a miss is a rewrite run, a
// hit a lookup that reused one.
type CompileCacheStats struct{ Hits, Misses uint64 }

// rewriteHits and rewriteMisses count the lookups of every CompileCache
// in the process, for CompileCacheTotals.
var rewriteHits, rewriteMisses atomic.Uint64

// logical returns the (possibly cached) logical phase result for (g, cfg).
func (c *CompileCache) logical(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, stats StatsProvider) (*scope.Graph, rules.Signature, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.certs) - 1; i >= 0; i-- {
		if e := &c.certs[i]; e.graph == g && cfg.Intersect(e.asked).Equal(e.on) {
			c.hits++
			rewriteHits.Add(1)
			return e.work, e.sig, e.err
		}
	}
	c.misses++
	rewriteMisses.Add(1)
	work, sig, asked, err := rewriteLogical(g, cfg, cat, stats, c.store)
	c.add(certificate{graph: g, asked: asked, on: cfg.Intersect(asked), work: work, sig: sig, err: err})
	return work, sig, err
}

// add appends e to the list, evicting the oldest certificate when the
// list is full. The list starts in c.inline; the add that outgrows it
// moves the list to the heap and clears c.inline, so no rewrite stays
// reachable from a slot the list no longer holds.
func (c *CompileCache) add(e certificate) {
	switch {
	case c.certs == nil:
		c.certs = c.inline[:0]
	case len(c.certs) == compileCacheSize:
		copy(c.certs, c.certs[1:])
		c.certs = c.certs[:len(c.certs)-1]
	case len(c.certs) == len(c.inline) && &c.certs[0] == &c.inline[0]:
		c.certs = append(make([]certificate, 0, compileCacheSpill), c.certs...)
		clear(c.inline[:])
	}
	c.certs = append(c.certs, e)
}

// KeepIn makes c keep each rewrite it adds in s: a copy into s's chunks
// in place of a Graph.Clone onto the heap, which lives as long as s does.
// Call it before c's first lookup.
func (c *CompileCache) KeepIn(s *scope.Store) { c.store = s }

// Stats snapshots the cache's lookups.
func (c *CompileCache) Stats() CompileCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CompileCacheStats{Hits: c.hits, Misses: c.misses}
}

// CompileCacheTotals reports the lookups of every CompileCache in the
// process so far, counted as Stats counts them.
func CompileCacheTotals() CompileCacheStats {
	return CompileCacheStats{Hits: rewriteHits.Load(), Misses: rewriteMisses.Load()}
}

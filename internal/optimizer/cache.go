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
// A cache belongs to one job instance: workload builds it beside the
// instance's graph and statistics, and (*workload.Job).CompileOptions
// hands the three out together, so every compilation through a cache
// sees the same statistics and no certificate need record them. Cached
// rewritten graphs are shared across goroutines; nothing downstream of
// the rewrite mutates logical nodes (verified under -race).
type CompileCache struct {
	mu           sync.Mutex
	certs        []certificate // oldest first, at most compileCacheSize
	hits, misses uint64
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

// NewCompileCache builds an empty cache.
func NewCompileCache() *CompileCache { return new(CompileCache) }

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
	work, sig, asked, err := rewriteLogical(g, cfg, cat, stats)
	if len(c.certs) == compileCacheSize {
		copy(c.certs, c.certs[1:])
		c.certs = c.certs[:len(c.certs)-1]
	}
	c.certs = append(c.certs, certificate{graph: g, asked: asked, on: cfg.Intersect(asked), work: work, sig: sig, err: err})
	return work, sig, err
}

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

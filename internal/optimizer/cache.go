package optimizer

import (
	"sync"
	"sync/atomic"

	"qoadvisor/internal/cache"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// compileCacheSize bounds one CompileCache, its exact-key memo and its
// certificates each. A job instance's cache holds the configurations its
// days compile it under — production's, the span fix point's, the
// recommended flip's and the flighting arms' — which is at most nine on
// the ledger's population.
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
// as the instance. Each call gets a fresh Plan, which nothing downstream
// writes to: exec.Run only reads a plan, and Recardinalize writes into
// the caller's dst.
//
// A lookup goes through two levels. The first is keyed by the identity of
// the input graph and the exact configuration, and shares one computation
// among concurrent callers of a key. On a miss there, the second reuses a
// rewrite of the same graph under another configuration when its reuse
// certificate holds: a rewrite reads the configuration only through
// ruleTable.pick, so it records the rules it asked about, and any
// configuration that enables exactly the same of those rules takes the
// same rewrite path to the same graph, signature and error (parametric
// query optimization's plan reuse, along the configuration axis only). A
// rewrite is run only when neither level has an answer; Stats counts it as
// the one kind of miss. Both levels are FIFO past compileCacheSize, and an
// eviction only costs a recompute.
//
// A cache belongs to one job instance: workload builds it beside the
// instance's graph and statistics, and (*workload.Job).CompileOptions
// hands the three out together, so every compilation through a cache
// sees the same statistics and neither level need key on them. Cached
// rewritten graphs are shared across goroutines; nothing downstream of
// the rewrite mutates logical nodes (verified under -race).
type CompileCache struct {
	f *cache.FIFO[logicalKey, logicalResult]

	mu    sync.Mutex
	certs []certificate // oldest first, at most compileCacheSize

	hits, misses atomic.Uint64
}

type logicalKey struct {
	graph *scope.Graph
	cfg   rules.Config
}

type logicalResult struct {
	work *scope.Graph
	sig  rules.Signature
}

// A certificate is one rewrite of graph with what it read of its
// configuration: the rules it asked about and which of them were on. A
// configuration cfg reuses it when cfg ∩ asked == on.
type certificate struct {
	graph *scope.Graph
	asked rules.Bitset
	on    rules.Bitset
	res   logicalResult
	err   error
}

// CompileCacheStats is a point-in-time snapshot of cache effectiveness.
type CompileCacheStats = cache.Stats

// rewriteHits and rewriteMisses count the lookups of every CompileCache
// in the process, for CompileCacheTotals.
var rewriteHits, rewriteMisses atomic.Uint64

// NewCompileCache builds an empty cache.
func NewCompileCache() *CompileCache {
	return &CompileCache{f: cache.NewFIFO[logicalKey, logicalResult](compileCacheSize)}
}

// logical returns the (possibly cached) logical phase result for (g, cfg).
func (c *CompileCache) logical(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, stats StatsProvider) (*scope.Graph, rules.Signature, error) {
	rewrote := false
	res, err := c.f.Do(logicalKey{graph: g, cfg: cfg}, func() (logicalResult, error) {
		if cert, ok := c.certified(g, cfg); ok {
			return cert.res, cert.err
		}
		rewrote = true
		work, sig, asked, err := rewriteLogical(g, cfg, cat, stats)
		res := logicalResult{work: work, sig: sig}
		c.certify(certificate{graph: g, asked: asked, on: cfg.Intersect(asked), res: res, err: err})
		return res, err
	})
	if rewrote {
		c.misses.Add(1)
		rewriteMisses.Add(1)
	} else {
		c.hits.Add(1)
		rewriteHits.Add(1)
	}
	return res.work, res.sig, err
}

// certified returns the newest certificate of g that cfg satisfies.
func (c *CompileCache) certified(g *scope.Graph, cfg rules.Config) (certificate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.certs) - 1; i >= 0; i-- {
		if e := &c.certs[i]; e.graph == g && cfg.Intersect(e.asked).Equal(e.on) {
			return *e, true
		}
	}
	return certificate{}, false
}

// certify adds cert, evicting the oldest past compileCacheSize.
func (c *CompileCache) certify(cert certificate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.certs) == compileCacheSize {
		copy(c.certs, c.certs[1:])
		c.certs = c.certs[:len(c.certs)-1]
	}
	c.certs = append(c.certs, cert)
}

// Stats snapshots the cache's lookups — a miss is a rewrite run, a hit one
// reused by either level — and the exact-key level's occupancy.
func (c *CompileCache) Stats() CompileCacheStats {
	st := c.f.Stats()
	st.Hits, st.Misses = c.hits.Load(), c.misses.Load()
	return st
}

// CompileCacheTotals reports the lookups of every CompileCache in the
// process so far, counted as Stats counts them. Size and Max are zero.
func CompileCacheTotals() CompileCacheStats {
	return CompileCacheStats{Hits: rewriteHits.Load(), Misses: rewriteMisses.Load()}
}

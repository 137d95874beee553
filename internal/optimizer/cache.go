package optimizer

import (
	"sync/atomic"

	"qoadvisor/internal/cache"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// compileCacheSize bounds one CompileCache. A job instance's cache holds
// the configurations its days compile it under — production's, the span
// fix point's, the recommended flip's and the flighting arms' — which is
// at most nine on the ledger's population.
const compileCacheSize = 16

// CompileCache memoizes the logical phase of Optimize — the rewrite
// fixpoint plus the experimental-validity check — keyed by the identity
// of the input graph and the exact rule configuration. The daily pipeline
// compiles one job instance under several configurations (production, the
// span fix point, the recommended flip, flighting's arms, the previous
// day's validation run), and each of those repeats the identical rewrite
// work; the cache makes every repeat reuse one immutable rewritten DAG and
// re-run only physical lowering, which is the part that can differ per
// call (tokens) and produces the per-call mutable Plan.
//
// A cache belongs to one job instance: workload builds it beside the
// instance's graph and statistics, and (*workload.Job).CompileOptions
// hands the three out together, so every compilation through a cache
// sees the same statistics and the key need not hold them. Cached
// rewritten graphs are shared across goroutines; nothing downstream of
// the rewrite mutates logical nodes (verified under -race). Concurrent
// callers for the same key share one rewrite; eviction is FIFO past the
// cap and only costs a recompute.
type CompileCache struct {
	f *cache.FIFO[logicalKey, logicalResult]
}

type logicalKey struct {
	graph *scope.Graph
	cfg   rules.Config
}

type logicalResult struct {
	work *scope.Graph
	sig  rules.Signature
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
		rewrote = true
		work, sig, err := rewriteLogical(g, cfg, cat, stats)
		return logicalResult{work: work, sig: sig}, err
	})
	if rewrote {
		rewriteMisses.Add(1)
	} else {
		rewriteHits.Add(1)
	}
	return res.work, res.sig, err
}

// Stats snapshots the hit/miss counters and current occupancy.
func (c *CompileCache) Stats() CompileCacheStats { return c.f.Stats() }

// CompileCacheTotals reports the lookups of every CompileCache in the
// process so far: a miss is a rewrite, a hit a rewrite reused. Size and
// Max are zero.
func CompileCacheTotals() CompileCacheStats {
	return CompileCacheStats{Hits: rewriteHits.Load(), Misses: rewriteMisses.Load()}
}

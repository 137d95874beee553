package optimizer

import (
	"slices"
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// Gate exposes the site-gating hash to the external identity tests.
var Gate = gate

// OptimizeTuningByRule is Optimize's compile path with the tuning pass run
// the way it ran before gates were hoisted: for every enabled sibling rule
// of a kind, for every node, recompute the node's gate, test whether it
// lands on the rule's residue, apply, and fire the rule once if any node
// changed. TestApplyTuningEquivalence holds the one-pass applyTuning to it.
// It skips Optimize's up-front rejections, so compare only configurations
// Optimize accepts. Its builder is never pooled.
func OptimizeTuningByRule(g *scope.Graph, cfg rules.Config, opts Options) (*Result, error) {
	work, sig, _, err := rewriteLogical(g, cfg, opts.Catalog, opts.Stats, nil)
	if err != nil {
		return nil, err
	}
	b := new(implBuilder)
	b.init(work, cfg, opts.Catalog, sig, opts.Stats, opts.Tokens)
	if err := b.lowerRoots(work); err != nil {
		return nil, err
	}
	for _, t := range tunings {
		siblings := opts.Catalog.OfKind(t.kind)
		for idx, r := range siblings {
			if !cfg.Enabled(r.ID) {
				continue
			}
			fired := false
			for _, n := range b.order {
				if int(gateOf(n)%uint64(len(siblings))) == idx && t.apply(n, r, b.tokens) {
					fired = true
				}
			}
			if fired {
				b.table.fire(r)
			}
		}
	}
	b.settlePartitions(b.order)
	b.assignStages()
	b.computeCost()
	return b.publish(work), nil
}

// LoweringAllocs builds the uncached rewrite of g under cfg on a builder
// of its own and, with the builder warm, counts with testing.AllocsPerRun
// what two parts of a compilation allocate: partScheme for each of the
// plan's keyed schemes (keyed is how many), every one of which the
// builder has interned, and publish of the finished plan.
func LoweringAllocs(g *scope.Graph, cfg rules.Config, opts Options) (scheme, publish float64, keyed int, err error) {
	work, sig, _, err := rewriteLogical(g, cfg, opts.Catalog, opts.Stats, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	b := new(implBuilder)
	b.init(work, cfg, opts.Catalog, sig, opts.Stats, opts.Tokens)
	if err := b.build(work); err != nil {
		return 0, 0, 0, err
	}
	var kinds []ExchangeKind
	var keys [][]byte
	for _, n := range b.order {
		if p := schemePrefix[n.Exchange]; n.IsExchange() && len(n.PartScheme) > len(p) {
			kinds, keys = append(kinds, n.Exchange), append(keys, []byte(n.PartScheme[len(p):]))
		}
	}
	scheme = testing.AllocsPerRun(100, func() {
		for i, key := range keys {
			b.partScheme(kinds[i], key)
		}
	})
	publish = testing.AllocsPerRun(100, func() { b.publish(work) })
	return scheme, publish, len(keys), nil
}

// RewriteOnHeap is the logical phase of Optimize(g, cfg, opts) without a
// cache, run on a rewriter of its own whose working copy is a heap Clone
// of g rather than a pooled scratch: the rewritten graph, or the
// compilation's error.
func RewriteOnHeap(g *scope.Graph, cfg rules.Config, opts Options) (*scope.Graph, error) {
	cat := opts.Catalog
	if cat == nil {
		cat = canonicalCatalog()
	}
	work, sig, _ := new(rewriter).rewrite(g.Clone(), cfg, cat, opts.Stats, nil)
	if err := checkExperimentalValidity(work, cfg, cat, sig); err != nil {
		return nil, err
	}
	return work, nil
}

// TestPooledRewriterPinsNothing: a rewriter goes back to rewriterPool
// holding no pointer into the compilation it served — no graph, no
// *scope.Node or expression in any scratch slot up to its capacity, no
// statistics — so a pooled rewriter never keeps a rewrite's graph alive
// (its working copy's Reset is held to the same by
// scope.TestScratchWorkingCopyMatchesHeap). The pool may hand out a fresh rewriter instead (the race detector
// drops pooled items at random), so the check repeats until it has seen a
// used one.
func TestPooledRewriterPinsNothing(t *testing.T) {
	g := compileTestGraph(t, testScript)
	opts := Options{Stats: testStats()}
	def := canonicalCatalog().DefaultConfig()
	for try := 0; try < 50; try++ {
		if _, err := Optimize(g, def, opts); err != nil {
			t.Fatal(err)
		}
		rw := rewriterPool.Get().(*rewriter)
		used := cap(rw.nodes) > 0
		if used {
			for _, pin := range rewriterPins(rw) {
				t.Errorf("pooled rewriter holds %s", pin)
			}
		}
		rewriterPool.Put(rw)
		if used {
			return
		}
	}
	t.Skip("the pool never returned a used rewriter")
}

// rewriterPins lists what rw points at of a compilation.
func rewriterPins(rw *rewriter) []string {
	var pins []string
	pin := func(held bool, what string) {
		if held {
			pins = append(pins, what)
		}
	}
	pin(rw.g != nil, "its graph")
	pin(rw.cat != nil || rw.ruleTable.sig != nil, "its rule table")
	pin(rw.stats != nil || rw.env != nil || rw.estimation.Stats != nil, "its statistics")
	pin(rw.est.env != nil || rw.est.stats != nil, "its cardinality environment")
	pin(slices.ContainsFunc(rw.nodes[:cap(rw.nodes)], notNil), "a node in nodes")
	for _, ps := range rw.parents[:cap(rw.parents)] {
		pin(slices.ContainsFunc(ps[:cap(ps)], notNil), "a node in parents")
	}
	pin(slices.ContainsFunc(rw.refs[:cap(rw.refs)], notNil), "a column reference in refs")
	pin(slices.ContainsFunc(rw.conj[:cap(rw.conj)], notNil), "an expression in conj")
	pin(slices.ContainsFunc(rw.est.conj[:cap(rw.est.conj)], notNil), "an expression in est.conj")
	return pins
}

func notNil[T comparable](x T) bool {
	var zero T
	return x != zero
}

// RewriteInto is the logical phase of Optimize(g, cfg, opts) without a
// cache, its rewrite kept in dst, or on the heap when dst is nil: the
// rewritten graph, its signature and the compilation's error.
func RewriteInto(g *scope.Graph, cfg rules.Config, opts Options, dst *scope.Store) (*scope.Graph, rules.Signature, error) {
	cat := opts.Catalog
	if cat == nil {
		cat = canonicalCatalog()
	}
	work, sig, _, err := rewriteLogical(g, cfg, cat, opts.Stats, dst)
	return work, sig, err
}

package optimizer

import (
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
// Optimize accepts.
func OptimizeTuningByRule(g *scope.Graph, cfg rules.Config, opts Options) (*Result, error) {
	work, sig, err := rewriteLogical(g, cfg, opts.Catalog, opts.Stats)
	if err != nil {
		return nil, err
	}
	b := new(implBuilder)
	b.init(work, cfg, opts.Catalog, &sig, opts.Stats, &EstimationEnv{Stats: opts.Stats}, opts.Tokens)
	for _, root := range work.Roots {
		pn, err := b.buildNode(root)
		if err != nil {
			return nil, err
		}
		b.plan.Roots = append(b.plan.Roots, pn)
	}

	b.plan.order = b.plan.walk()
	nodes := b.plan.Nodes()
	for _, t := range tunings {
		siblings := opts.Catalog.OfKind(t.kind)
		for idx, r := range siblings {
			if !cfg.Enabled(r.ID) {
				continue
			}
			fired := false
			for _, n := range nodes {
				if int(gateOf(n)%uint64(len(siblings))) == idx && t.apply(n, r, b.tokens) {
					fired = true
				}
			}
			if fired {
				b.table.fire(r)
			}
		}
	}
	b.settlePartitions(nodes)

	b.assignStages()
	b.computeCost()
	return &Result{Plan: b.plan, Logical: work, Signature: sig, EstCost: b.plan.EstCost}, nil
}

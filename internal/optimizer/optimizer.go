package optimizer

import (
	"fmt"
	"sync"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// Options configures a compilation.
type Options struct {
	// Catalog is the rule catalog; nil uses the canonical 256-rule catalog.
	Catalog *rules.Catalog
	// Stats provides estimated base-table statistics; nil knows no table
	// (every scan estimates EstimationEnv's default row count).
	Stats StatsProvider
	// Tokens is the maximum degree of parallelism available to the job
	// (the SCOPE "token" allocation). Zero means DefaultTokens.
	Tokens int
	// Cache, when non-nil, memoizes the logical phase (rewrite fixpoint +
	// experimental-validity check) per (input graph, rule configuration).
	// Physical lowering always re-runs, so cached and uncached compilation
	// produce identical Results. A cache belongs to one job instance and
	// comes with its Stats from (*workload.Job).CompileOptions.
	Cache *CompileCache
}

// DefaultTokens is the default per-job parallelism budget.
const DefaultTokens = 200

// CompileFailure is returned when a rule configuration cannot produce a
// valid plan — the "recompilation failures" the paper counts in Table 3.
type CompileFailure struct {
	Reason string
}

func (e *CompileFailure) Error() string {
	return "optimizer: compilation failed: " + e.Reason
}

// IsCompileFailure reports whether err is a CompileFailure.
func IsCompileFailure(err error) bool {
	_, ok := err.(*CompileFailure)
	return ok
}

// Result is the output of a compilation: a physical plan, the estimated
// cost, and the rule signature recording every rule that fired.
type Result struct {
	Plan      *Plan
	Logical   *scope.Graph // post-rewrite logical DAG
	Signature rules.Signature
	EstCost   float64
}

// canonicalCatalog is the catalog a nil Options.Catalog stands for, built
// on first use: catalogs are immutable, so every such call shares it.
var canonicalCatalog = sync.OnceValue(rules.NewCatalog)

// Optimize compiles the logical DAG under the given rule configuration.
// The input graph is never mutated: all rewrites run on a clone. When
// opts.Cache is set, the rewritten logical DAG is reused across calls
// with the same (graph, configuration); the physical lowering phase
// (implBuilder) treats logical nodes as strictly read-only — a guarantee
// exercised under -race by TestCachedLogicalGraphSharedLoweringRace —
// so a cached clone can be lowered concurrently by many goroutines.
func Optimize(g *scope.Graph, cfg rules.Config, opts Options) (*Result, error) {
	cat := opts.Catalog
	if cat == nil {
		cat = canonicalCatalog()
	}
	// Required rules must be enabled to obtain valid plans.
	for _, r := range cat.Rules(rules.Required) {
		if !cfg.Enabled(r.ID) {
			return nil, &CompileFailure{Reason: fmt.Sprintf("required rule %s (R%03d) is disabled", r.Name, r.ID)}
		}
	}
	// Hinted compilations (single-rule deviations from the default) hit
	// deterministic "unsupported rule combination" rejections on a slice
	// of plan shapes, modelling the recompilation failures the paper
	// counts in Table 3 (13.9%-18% of flips).
	if flips := cfg.DiffFrom(cat.DefaultConfig()); len(flips) == 1 {
		h := g.TemplateHash() ^ (uint64(flips[0].RuleID+1) * 0x9e3779b97f4a7c15)
		if h%6 == 3 {
			r := cat.Rule(flips[0].RuleID)
			return nil, &CompileFailure{Reason: fmt.Sprintf("unsupported rule combination: flipping %s (R%03d) on this plan shape", r.Name, r.ID)}
		}
	}

	var work *scope.Graph
	var sig rules.Signature
	var err error
	if opts.Cache != nil {
		work, sig, err = opts.Cache.logical(g, cfg, cat, opts.Stats)
	} else {
		work, sig, err = rewriteLogical(g, cfg, cat, opts.Stats)
	}
	if err != nil {
		return nil, err
	}

	tokens := opts.Tokens
	if tokens <= 0 {
		tokens = DefaultTokens
	}
	plan, err := lowerPlan(work, cfg, cat, &sig, opts.Stats, &EstimationEnv{Stats: opts.Stats}, tokens)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: plan, Logical: work, Signature: sig, EstCost: plan.EstCost}, nil
}

// rewriteLogical runs the logical phase of a compilation: clone the input
// DAG, apply the enabled rewrites to fixpoint, and run the experimental
// validity check. The returned graph is final — nothing downstream (the
// implBuilder, the execution simulator, view building) mutates logical
// nodes, which is what makes the result cacheable and shareable.
func rewriteLogical(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, stats StatsProvider) (*scope.Graph, rules.Signature, error) {
	var sig rules.Signature
	for _, r := range cat.Rules(rules.Required) {
		sig.Record(r.ID) // normalization always runs
	}
	env := &EstimationEnv{Stats: stats}
	work := g.Clone()
	rewrite(work, cfg, cat, &sig, stats, env)
	if err := checkExperimentalValidity(work, cfg, cat, &sig); err != nil {
		return nil, sig, err
	}
	return work, sig, nil
}

// checkExperimentalValidity models the riskiness of off-by-default rules:
// experimental rewrites occasionally produce plans the engine rejects.
// The failure is deterministic per (rule, site) so that recompilation of
// the same job under the same configuration is reproducible.
func checkExperimentalValidity(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig *rules.Signature) error {
	for _, r := range cat.Rules(rules.OffByDefault) {
		if !cfg.Enabled(r.ID) || !sig.Fired(r.ID) {
			continue
		}
		// A fired experimental rule fails validation on a deterministic
		// slice of plan shapes.
		h := g.TemplateHash() ^ (uint64(r.ID) * 0x9e3779b97f4a7c15)
		if h%23 == 5 {
			return &CompileFailure{Reason: fmt.Sprintf("experimental rule %s (R%03d) produced an invalid plan", r.Name, r.ID)}
		}
	}
	return nil
}

// ruleTable is the rule-selection helper the rewriter and the implBuilder
// share: sibling variants of a kind partition operator sites by gate hash,
// so exactly one catalog rule is responsible for a given (kind, site) pair.
type ruleTable struct {
	cat *rules.Catalog
	cfg rules.Config
	sig *rules.Signature
}

// pick returns the rule responsible for (kind, gate) and whether it is
// enabled.
func (t *ruleTable) pick(kind rules.Kind, gate uint64) (rules.Rule, bool) {
	rs := t.cat.OfKind(kind)
	if len(rs) == 0 {
		return rules.Rule{}, false
	}
	r := rs[gate%uint64(len(rs))]
	return r, t.cfg.Enabled(r.ID)
}

// fire records a firing.
func (t *ruleTable) fire(r rules.Rule) { t.sig.Record(r.ID) }

// Recardinalize recomputes per-node row counts of a physical plan under a
// different cardinality environment (typically the execution simulator's
// ground truth), indexed by PhysNode.ID. Exchanges inherit their input's
// row count.
func (p *Plan) Recardinalize(env Environment, stats StatsProvider) []float64 {
	nodes := p.Nodes() // topological order: inputs first
	bound := 0
	for _, n := range nodes {
		if n.Logical != nil && n.Logical.ID >= bound {
			bound = n.Logical.ID + 1
		}
	}
	var engine cardEngine
	engine.reset(env, stats, bound)
	out := make([]float64, p.nextID)
	for _, n := range nodes {
		switch {
		case n.Logical != nil:
			out[n.ID] = engine.rows(n.Logical)
		case len(n.Inputs) > 0:
			out[n.ID] = out[n.Inputs[0].ID]
		default:
			out[n.ID] = 1
		}
	}
	return out
}

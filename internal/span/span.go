// Package span implements the job-span computation of §4.1: a fix-point
// heuristic that discovers all optimizer rules which, if enabled or
// disabled, can affect a job's final query plan. The span is what limits
// QO-Advisor's action space — the contextual bandit only considers
// flipping rules inside the span.
package span

import (
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// maxIterations bounds the fix-point loop.
const maxIterations = 8

// Result describes a computed job span.
type Result struct {
	// Span is the set of plan-affecting, non-required rules.
	Span rules.Bitset
	// Iterations is the number of recompilation passes performed.
	Iterations int
	// FailedCompile reports whether the fix point was reached because a
	// perturbed configuration failed to compile (a legitimate
	// termination condition per the paper).
	FailedCompile bool
	// DefaultSignature is the rule signature under the default config.
	DefaultSignature rules.Signature
	// DefaultCost is the estimated cost under the default config.
	DefaultCost float64
}

// Compute runs the span fix-point algorithm for one job.
//
// Starting from the default configuration's signature, it enables all
// off-by-default rules and disables the on-by-default and implementation
// rules that appeared in the signature, recompiles, and repeats — turning
// off newly used rules each round — until no new rule is discovered, a
// recompilation fails, or maxIterations rounds have run. It reads only
// each compilation's signature and cost, so it compiles with
// optimizer.Estimate and builds no plan.
func Compute(g *scope.Graph, cat *rules.Catalog, opts optimizer.Options) (*Result, error) {
	if cat == nil {
		cat = rules.NewCatalog()
	}
	if opts.Catalog == nil {
		opts.Catalog = cat
	}

	def := cat.DefaultConfig()
	baseSig, baseCost, err := optimizer.Estimate(g, def, opts)
	if err != nil {
		return nil, err // the default config must compile
	}
	res := &Result{
		DefaultSignature: baseSig,
		DefaultCost:      baseCost,
	}

	// The exploration baseline: everything enabled, including the
	// off-by-default rules.
	explore := def
	for _, r := range cat.Rules(rules.OffByDefault) {
		explore.Set(r.ID)
	}

	isSteerable := func(id int) bool {
		return cat.Rule(id).Category != rules.Required
	}

	var buf [rules.NumRules]int // each signature's rule IDs, in turn
	var seen rules.Bitset       // steerable rules observed in any signature
	for _, id := range baseSig.AppendBits(buf[:0]) {
		if isSteerable(id) {
			seen.Set(id)
		}
	}
	turnedOff := seen // value copy: rules to disable next round

	// Exploration degrades through three levels when a perturbed
	// configuration fails to compile: (0) everything enabled including
	// off-by-default rules and all signature rules disabled, (1) the same
	// without the risky off-by-default rules, (2) disabling only the
	// rewrite (on-by-default) signature rules, keeping implementation
	// rules available. Level 2 always compiles for plans that compiled
	// under the default configuration.
	level := 0
	for iter := 0; iter < maxIterations; iter++ {
		res.Iterations = iter + 1
		cfg := explore
		if level >= 1 {
			cfg = def
		}
		for _, id := range turnedOff.AppendBits(buf[:0]) {
			if level >= 2 && cat.Rule(id).Category == rules.Implementation {
				continue
			}
			cfg.Clear(id)
		}
		sig, _, err := optimizer.Estimate(g, cfg, opts)
		if err != nil {
			if optimizer.IsCompileFailure(err) {
				if level < 2 {
					level++
					continue
				}
				res.FailedCompile = true
				break
			}
			return nil, err
		}
		newFound := false
		for _, id := range sig.AppendBits(buf[:0]) {
			if isSteerable(id) && !seen.Get(id) {
				seen.Set(id)
				turnedOff.Set(id)
				newFound = true
			}
		}
		if !newFound {
			break
		}
	}
	res.Span = seen
	return res, nil
}

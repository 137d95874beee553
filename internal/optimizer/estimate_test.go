package optimizer_test

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// sameEstimate reports how Estimate's answer for one configuration
// differs from Optimize's: in whether it fails, in the error, or in the
// signature or the estimated cost, which must agree bit for bit.
func sameEstimate(sig rules.Signature, cost float64, err error, res *optimizer.Result, resErr error) string {
	switch {
	case (err == nil) != (resErr == nil):
		return "Estimate error " + errString(err) + ", Optimize " + errString(resErr)
	case err != nil:
		if optimizer.IsCompileFailure(err) != optimizer.IsCompileFailure(resErr) || err.Error() != resErr.Error() {
			return fmt.Sprintf("Estimate error %v (%T), Optimize %v (%T)", err, err, resErr, resErr)
		}
		return ""
	case !sig.Equal(res.Signature.Bitset):
		return "Estimate signature " + sig.String() + ", Optimize " + res.Signature.String()
	case math.Float64bits(cost) != math.Float64bits(res.EstCost):
		return fmt.Sprintf("Estimate cost %v, Optimize %v", cost, res.EstCost)
	}
	return ""
}

// checkEstimate compiles g under cfg with Estimate and with Optimize,
// Estimate first when estimateFirst (through a cache, the first call is
// the one that may rewrite), and reports how the two differ and
// Optimize's error.
func checkEstimate(g *scope.Graph, cfg rules.Config, opts optimizer.Options, estimateFirst bool) (string, error) {
	var sig rules.Signature
	var cost float64
	var err, resErr error
	var res *optimizer.Result
	if estimateFirst {
		sig, cost, err = optimizer.Estimate(g, cfg, opts)
		res, resErr = optimizer.Optimize(g, cfg, opts)
	} else {
		res, resErr = optimizer.Optimize(g, cfg, opts)
		sig, cost, err = optimizer.Estimate(g, cfg, opts)
	}
	return sameEstimate(sig, cost, err, res, resErr), resErr
}

// TestEstimateMatchesOptimize: Estimate is Optimize without the plan. On
// every ledger template, under the default configuration, the default
// with every off-by-default rule on and every single flip of a
// non-required rule, uncached and through the instance's rewrite memo,
// the two fail together with the same error or agree on the signature
// and, bit for bit, the estimated cost. The templates run on a par.For
// pool, so Estimate and Optimize share the pooled builders and rewriters
// as they do in core.Recommend; under -race (CI's memo stress step) the
// first four templates stand for the population.
func TestEstimateMatchesOptimize(t *testing.T) {
	cat := rules.NewCatalog()
	configs := append([]rules.Config{withEveryOffRule(cat)}, singleFlipConfigs(cat)...)
	tpls := ledgerTemplates(t)
	if raceEnabled {
		tpls = tpls[:4]
	}
	var compiled, failed atomic.Int64
	par.For(len(tpls), func(i int) {
		job, err := tpls[i].Instantiate(1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		fresh := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
		for k, cfg := range configs {
			for _, opts := range []optimizer.Options{fresh, job.CompileOptions(cat)} {
				diff, err := checkEstimate(job.Graph, cfg, opts, k%2 == 0)
				if diff != "" {
					t.Errorf("%s %v (cached %v): %s", job.Template.ID, cfg, opts.Cache != nil, diff)
					return
				}
				switch {
				case opts.Cache != nil:
				case err != nil:
					failed.Add(1)
				default:
					compiled.Add(1)
				}
			}
		}
	})
	t.Logf("%d templates x %d configurations: %d compiled, %d failed", len(tpls), len(configs), compiled.Load(), failed.Load())
	if compiled.Load() == 0 || failed.Load() == 0 {
		t.Errorf("%d compiled and %d failed configurations; want both", compiled.Load(), failed.Load())
	}
}

// TestEstimateAllocBudget: an Estimate through a warm rewrite memo — the
// span search's and the recommender's compilation — lowers, tunes, stages
// and costs in pooled scratch and publishes nothing, so it allocates
// nothing; Optimize there allocates what publish does
// (TestOptimizeAllocBudget).
func TestEstimateAllocBudget(t *testing.T) {
	budget.SkipRace(t) // before the warming compilations
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	job := threeOutputJob(t)
	opts := job.CompileOptions(cat)
	if _, err := optimizer.Optimize(job.Graph, def, opts); err != nil { // warm the memo and the pools
		t.Fatal(err)
	}
	budget.Allocs(t, "optimizer.estimate", 50, func() {
		if _, _, err := optimizer.Estimate(job.Graph, def, opts); err != nil {
			t.Fatal(err)
		}
	})
}

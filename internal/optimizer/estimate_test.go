package optimizer_test

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/workload"
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

// checkUse compiles job's graph under cfg with Use and with Optimize, Use
// first when useFirst, and reports how the borrowed plan differs from the
// published one and Optimize's error. Both fail together with the same
// error, or else both Results agree on the signature and the cost bits,
// both plans render alike, keep every output of the graph, and run on the
// same seed to the same metrics bit for bit and to equal view rows.
func checkUse(job *workload.Job, cfg rules.Config, opts optimizer.Options, useFirst bool) (string, error) {
	const seed = 7
	cluster := exec.DefaultCluster(1)
	var diff, plan string
	var sig rules.Signature
	var cost float64
	var m exec.Metrics
	var rows []workload.ViewRow
	use := func() error {
		return optimizer.Use(job.Graph, cfg, opts, func(res *optimizer.Result) {
			sig, cost = res.Signature, res.EstCost
			if len(res.Plan.Roots) != len(job.Graph.Roots) {
				diff = fmt.Sprintf("the borrowed plan has %d outputs, the graph %d", len(res.Plan.Roots), len(job.Graph.Roots))
			}
			plan = renderPlan(res.Plan)
			m = exec.Run(res.Plan, job.Truth, job.Stats, cluster, seed)
			rows = workload.AppendViewRows(nil, job, res, m)
		})
	}
	var err, resErr error
	var res *optimizer.Result
	if useFirst {
		err = use()
		res, resErr = optimizer.Optimize(job.Graph, cfg, opts)
	} else {
		res, resErr = optimizer.Optimize(job.Graph, cfg, opts)
		err = use()
	}
	switch {
	case (err == nil) != (resErr == nil) || errString(err) != errString(resErr):
		return "Use error " + errString(err) + ", Optimize " + errString(resErr), resErr
	case err != nil || diff != "":
		return diff, resErr
	case !sig.Equal(res.Signature.Bitset) || math.Float64bits(cost) != math.Float64bits(res.EstCost):
		return fmt.Sprintf("Use signature %v cost %v, Optimize %v cost %v", sig, cost, res.Signature, res.EstCost), resErr
	case plan != renderPlan(res.Plan):
		return "the borrowed plan renders as\n" + plan + "the published one as\n" + renderPlan(res.Plan), resErr
	}
	if want := exec.Run(res.Plan, job.Truth, job.Stats, cluster, seed); !sameMetrics(m, want) {
		return fmt.Sprintf("the borrowed plan runs to %+v, the published one to %+v", m, want), resErr
	}
	if want := workload.AppendViewRows(nil, job, res, m); !reflect.DeepEqual(rows, want) {
		return fmt.Sprintf("the borrowed plan's view rows are %+v, the published one's %+v", rows, want), resErr
	}
	return "", resErr
}

// sameMetrics reports whether a and b are the same metrics, floats bit
// for bit.
func sameMetrics(a, b exec.Metrics) bool {
	bits := func(m exec.Metrics) [9]uint64 {
		return [9]uint64{math.Float64bits(m.LatencySec), math.Float64bits(m.PNHours), uint64(m.Vertices),
			math.Float64bits(m.DataRead), math.Float64bits(m.DataWritten), math.Float64bits(m.MaxMemory),
			math.Float64bits(m.AvgMemory), math.Float64bits(m.TotalCPUSec), math.Float64bits(m.TotalIOSec)}
	}
	return bits(a) == bits(b)
}

// TestEstimateMatchesOptimize: Estimate is Optimize without the plan, and
// Use is Optimize with the plan borrowed rather than published. On every
// ledger template, under the default configuration, the default with
// every off-by-default rule on and every single flip of a non-required
// rule, uncached and through the instance's rewrite memo, each fails
// together with Optimize with the same error, or else Estimate agrees on
// the signature and, bit for bit, the estimated cost (checkEstimate), and
// Use's plan on everything a caller reads of it (checkUse). The templates
// run on a par.For pool, so Estimate, Use and Optimize share the pooled
// builders and rewriters as they do in the offline pipeline; under -race
// (CI's memo stress step) the first four templates stand for the
// population.
func TestEstimateMatchesOptimize(t *testing.T) {
	cat := rules.NewCatalog()
	configs := append([]rules.Config{withEveryOffRule(cat)}, singleFlipConfigs(cat)...)
	tpls := ledgerTemplates(t)
	if raceEnabled {
		tpls = tpls[:4]
	}
	matrix := func(t *testing.T, check func(job *workload.Job, cfg rules.Config, opts optimizer.Options, first bool) (string, error)) {
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
					diff, err := check(job, cfg, opts, k%2 == 0)
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
	t.Run("Estimate", func(t *testing.T) {
		matrix(t, func(job *workload.Job, cfg rules.Config, opts optimizer.Options, first bool) (string, error) {
			return checkEstimate(job.Graph, cfg, opts, first)
		})
	})
	t.Run("Use", func(t *testing.T) { matrix(t, checkUse) })
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

// TestUseAllocBudget: a Use through a warm rewrite memo — production's
// and flighting's compilation — hands its callback the plan in the pooled
// builder's scratch and publishes nothing, so it allocates nothing.
func TestUseAllocBudget(t *testing.T) {
	budget.SkipRace(t) // before the warming compilations
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	job := threeOutputJob(t)
	opts := job.CompileOptions(cat)
	if _, err := optimizer.Optimize(job.Graph, def, opts); err != nil { // warm the memo and the pools
		t.Fatal(err)
	}
	roots := 0
	budget.Allocs(t, "optimizer.use", 50, func() {
		if err := optimizer.Use(job.Graph, def, opts, func(res *optimizer.Result) { roots = len(res.Plan.Roots) }); err != nil {
			t.Fatal(err)
		}
	})
	if roots != 3 {
		t.Fatalf("the borrowed plan has %d outputs, want 3", roots)
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated SCOPE substrate. Each experiment is a
// function returning a structured result that the cmd/experiments binary
// and this package's benchmarks print in the same form the paper reports:
// the absolute numbers come from the simulator, but the shapes — which
// metric is stable, who wins, by roughly what factor — are the
// reproduction targets (`go run ./cmd/experiments -scale quick` prints
// them; EXPERIMENTS.md sets them beside the paper's numbers).
package experiments

import (
	"fmt"
	"math/rand"

	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// Config sizes an experiment run. The zero value is usable: Defaults are
// applied by NewLab.
type Config struct {
	Seed         int64
	NumTemplates int
}

// AARuns is the number of A/A repetitions of the variance experiments.
const AARuns = 10

// Scale presets.
var (
	// Quick is sized for benchmarks and tests.
	Quick = Config{Seed: 42, NumTemplates: 40}
	// Full is sized for the cmd/experiments reproduction run.
	Full = Config{Seed: 42, NumTemplates: 120}
)

// Lab bundles the shared infrastructure of all experiments: the workload
// generator, rule catalog, cluster model, one span memo and one flight
// log.
type Lab struct {
	Cfg     Config
	Catalog *rules.Catalog
	Gen     *workload.Generator
	Cluster *exec.Cluster

	// spans is the span memo every experiment reads (Feature
	// Generation's, keyed by template).
	spans *core.FeatureGen
	// flights is the flight log of days 1 to flightDays, gathered on
	// first use (nil until then).
	flights []FlightObservation
}

// NewLab builds the shared experiment infrastructure.
func NewLab(cfg Config) (*Lab, error) {
	if cfg.NumTemplates <= 0 {
		cfg.NumTemplates = 40
	}
	gen, err := workload.New(workload.Config{Seed: cfg.Seed, NumTemplates: cfg.NumTemplates, MaxDailyInstances: 2})
	if err != nil {
		return nil, err
	}
	cat := rules.NewCatalog()
	return &Lab{
		Cfg:     cfg,
		Catalog: cat,
		Gen:     gen,
		Cluster: exec.DefaultCluster(cfg.Seed),
		spans:   core.NewFeatureGen(cat),
	}, nil
}

// compileDefault compiles a job under the default configuration. The
// job instance's own rewrite memo makes a repeat cheap.
func (l *Lab) compileDefault(job *workload.Job) (*optimizer.Result, error) {
	return l.compileWith(job, l.Catalog.DefaultConfig())
}

// jobsForDay instantiates the day's workload.
func (l *Lab) jobsForDay(day int) ([]*workload.Job, error) {
	return l.Gen.JobsForDay(day)
}

// uniqueJobsForDay returns one instance per template for the day (the
// variance and stability experiments operate on unique recurring jobs).
func (l *Lab) uniqueJobsForDay(day int) ([]*workload.Job, error) {
	var jobs []*workload.Job
	for _, tpl := range l.Gen.Templates() {
		j, err := tpl.Instantiate(day, 0)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// costImprovingFlip searches a job's span (in randomized order) for a
// single rule flip whose recompilation lowers the estimated cost. It
// returns the flip, the treatment result, and whether one was found —
// the "rule flips leading to lower estimated costs" the paper flights.
// The search estimates; only the flip it returns is compiled to a plan.
func (l *Lab) costImprovingFlip(job *workload.Job, spanBits []int, rng *rand.Rand) (rules.Flip, *optimizer.Result, bool) {
	baseCost, err := l.estimateWith(job, l.Catalog.DefaultConfig())
	if err != nil {
		return rules.Flip{}, nil, false
	}
	order := rng.Perm(len(spanBits))
	for _, i := range order {
		flip := l.Catalog.FlipFor(spanBits[i])
		if cost, err := l.estimateWith(job, l.Catalog.DefaultConfig().WithFlip(flip)); err == nil && cost < baseCost {
			return l.treatment(job, flip)
		}
	}
	return rules.Flip{}, nil, false
}

// bestCostFlip searches the whole span for the flip with the lowest
// recompiled estimated cost, mirroring the flighting queue's
// lowest-estimated-cost-first priority. The search estimates; only the
// flip it returns is compiled to a plan.
func (l *Lab) bestCostFlip(job *workload.Job, spanBits []int) (rules.Flip, *optimizer.Result, bool) {
	bestCost, err := l.estimateWith(job, l.Catalog.DefaultConfig())
	if err != nil {
		return rules.Flip{}, nil, false
	}
	var bestFlip rules.Flip
	found := false
	for _, id := range spanBits {
		flip := l.Catalog.FlipFor(id)
		if cost, err := l.estimateWith(job, l.Catalog.DefaultConfig().WithFlip(flip)); err == nil && cost < bestCost {
			bestFlip, bestCost, found = flip, cost, true
		}
	}
	if !found {
		return rules.Flip{}, nil, false
	}
	return l.treatment(job, bestFlip)
}

// treatment compiles a job under a flip its search has already compiled,
// so it does not fail.
func (l *Lab) treatment(job *workload.Job, flip rules.Flip) (rules.Flip, *optimizer.Result, bool) {
	res, err := l.compileWith(job, l.Catalog.DefaultConfig().WithFlip(flip))
	return flip, res, err == nil
}

// estimateWith is the estimated cost of a job's compilation under an
// arbitrary configuration, found without building a plan.
func (l *Lab) estimateWith(job *workload.Job, cfg rules.Config) (float64, error) {
	_, cost, err := optimizer.Estimate(job.Graph, cfg, job.CompileOptions(l.Catalog))
	return cost, err
}

// compileWith compiles a job under an arbitrary configuration.
func (l *Lab) compileWith(job *workload.Job, cfg rules.Config) (*optimizer.Result, error) {
	return optimizer.Optimize(job.Graph, cfg, job.CompileOptions(l.Catalog))
}

// freshStore returns an empty SIS store for pipeline experiments.
func (l *Lab) freshStore() *sis.Store { return sis.NewStore(l.Catalog) }

// production wires a production loop against a store.
func (l *Lab) production(store *sis.Store, seed int64) *core.Production {
	return core.NewProduction(l.Catalog, store, l.Cluster, seed)
}

// FormatPct renders a fraction as a signed percentage the way the paper's
// tables do.
func FormatPct(x float64) string {
	return fmt.Sprintf("%+.1f%%", x*100)
}

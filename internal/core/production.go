package core

import (
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// JobRun is one production execution of a job.
type JobRun struct {
	Job     *workload.Job
	Result  *optimizer.Result
	Metrics exec.Metrics
	// Hinted reports whether a SIS hint steered this compilation.
	Hinted bool
	Flip   rules.Flip
}

// Production simulates the online side of the loop: every submitted job
// is compiled with the optimizer, consulting the SIS hint store for its
// template, then executed on the cluster; the resulting telemetry becomes
// the next day's denormalized workload view.
type Production struct {
	Catalog *rules.Catalog
	Store   *sis.Store
	Cluster *exec.Cluster
	Seed    int64
}

// NewProduction wires the production loop.
func NewProduction(cat *rules.Catalog, store *sis.Store, cluster *exec.Cluster, seed int64) *Production {
	if cat == nil {
		cat = rules.NewCatalog()
	}
	if store == nil {
		store = sis.NewStore(cat)
	}
	if cluster == nil {
		cluster = exec.DefaultCluster(seed)
	}
	return &Production{Catalog: cat, Store: store, Cluster: cluster, Seed: seed}
}

// compile compiles a job's instance under the current hints, as a run
// with no job and no metrics yet. If a hinted compilation fails,
// production falls back to the default configuration (hints must never
// break jobs); a run with a nil Result did not compile even under that.
func (p *Production) compile(job *workload.Job) JobRun {
	def := p.Catalog.DefaultConfig()
	cfg := p.Store.ConfigFor(job.Template.Hash, def)
	hinted := !cfg.Equal(def.Bitset)

	opts := job.CompileOptions(p.Catalog)
	res, err := optimizer.Optimize(job.Graph, cfg, opts)
	if err != nil && hinted {
		res, err = optimizer.Optimize(job.Graph, def, opts)
		hinted = false
	}
	if err != nil {
		return JobRun{}
	}
	run := JobRun{Result: res, Hinted: hinted}
	if hinted {
		if h, ok := p.Store.Lookup(job.Template.Hash); ok {
			run.Flip = h.Flip
		}
	}
	return run
}

// RunDay executes all of a day's jobs and assembles the denormalized
// workload view from their telemetry. A day's recurrences of one
// template are one instance (one job.Graph) steered by one hint, so
// RunDay compiles each distinct instance once and every recurrence runs
// that one *optimizer.Result's plan, each with its own run seed. Both
// passes fan out on a GOMAXPROCS-bounded pool — a compilation is a pure
// function of the instance and the hint store, which is read-only during
// a day, and exec.Run only reads the plan it shares — and runs and view
// are assembled in job order, so the result does not depend on
// GOMAXPROCS. The pipeline that recompiles the day's jobs shares the
// instance's memoized rewrites too.
func (p *Production) RunDay(date int, jobs []*workload.Job) ([]JobRun, []workload.ViewRow, error) {
	slots := shareBy(len(jobs),
		func(i int) *scope.Graph { return jobs[i].Graph },
		func(i int) JobRun { return p.compile(jobs[i]) })
	par.For(len(jobs), func(i int) {
		// A job that cannot compile even under the default config leaves
		// its slot without a Result and is dropped from the day's view.
		if run := &slots[i]; run.Result != nil {
			run.Job = jobs[i]
			run.Metrics = exec.Run(run.Result.Plan, jobs[i].Truth, jobs[i].Stats, p.Cluster, p.Seed+int64(date)*100003+int64(i)*7)
		}
	})
	// The kept runs close up in slots' own storage, and the view — the
	// next day's input — is one exact allocation per day.
	runs := slots[:0]
	trees := 0
	for _, run := range slots {
		if run.Result != nil {
			runs = append(runs, run)
			trees += len(run.Result.Plan.Roots)
		}
	}
	clear(slots[len(runs):])
	view := make([]workload.ViewRow, 0, trees)
	for _, run := range runs {
		view = workload.AppendViewRows(view, run.Job, run.Result, run.Metrics)
	}
	return runs, view, nil
}

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

// JobRun is one production execution of a job. Its plan ran inside
// the compilation and was never kept; the run keeps what outlives it at
// no cost: the instance's memoized rewritten graph, the signature and
// the estimated cost.
type JobRun struct {
	Job       *workload.Job
	Logical   *scope.Graph // post-rewrite logical DAG
	Signature rules.Signature
	EstCost   float64
	Metrics   exec.Metrics
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

// RunDay executes all of a day's jobs and assembles the denormalized
// workload view from their telemetry. A day's recurrences of one
// template are one instance (one job.Graph) steered by one hint, so
// RunDay compiles each distinct instance once and runs every recurrence
// inside that borrowed compilation (optimizer.Use), each with its own
// run seed, writing its run and its view rows in its slots; no plan
// outlives its instance's compilation. The instances fan out on a
// GOMAXPROCS-bounded pool — a compilation is a pure function of the
// instance and the hint store, which is read-only during a day — and runs
// and view are assembled in job order, so the result does not depend on
// GOMAXPROCS. The pipeline that recompiles the day's jobs shares the
// instance's memoized rewrites too.
func (p *Production) RunDay(date int, jobs []*workload.Job) ([]JobRun, []workload.ViewRow, error) {
	first, next := groupBy(len(jobs), func(i int) *scope.Graph { return jobs[i].Graph })
	// A compilation keeps every output of its graph, and a job has one
	// view row per output, so job i's rows are view[off[i]:off[i+1]].
	off := make([]int, len(jobs)+1)
	for i, job := range jobs {
		off[i+1] = off[i] + len(job.Graph.Roots)
	}
	runs := make([]JobRun, len(jobs))
	view := make([]workload.ViewRow, off[len(jobs)])
	par.For(len(jobs), func(i int) {
		if first[i] == i {
			p.runInstance(date, jobs, i, next, runs, view, off)
		}
	})
	// A job that cannot compile even under the default config left its
	// slots empty; the kept runs and rows close up in their own storage.
	kept, rows := 0, 0
	for i, run := range runs {
		if run.Job != nil {
			runs[kept] = run
			kept++
			rows += copy(view[rows:], view[off[i]:off[i+1]])
		}
	}
	clear(runs[kept:])
	clear(view[rows:])
	return runs[:kept], view[:rows], nil
}

// runInstance compiles jobs[i]'s instance under the current hints and
// runs its recurrences i, next[i], … in that one compilation, each job j
// into runs[j] and view[off[j]:off[j+1]]. If a hinted compilation fails,
// production falls back to the default configuration (hints must never
// break jobs); an instance that does not compile even under that leaves
// its recurrences' slots empty.
func (p *Production) runInstance(date int, jobs []*workload.Job, i int, next []int, runs []JobRun, view []workload.ViewRow, off []int) {
	job := jobs[i]
	def := p.Catalog.DefaultConfig()
	cfg := p.Store.ConfigFor(job.Template.Hash, def)
	hinted := !cfg.Equal(def.Bitset)
	var flip rules.Flip
	if hinted {
		if h, ok := p.Store.Lookup(job.Template.Hash); ok {
			flip = h.Flip
		}
	}
	runAll := func(res *optimizer.Result) {
		for j := i; j >= 0; j = next[j] {
			m := exec.Run(res.Plan, jobs[j].Truth, jobs[j].Stats, p.Cluster, p.Seed+int64(date)*100003+int64(j)*7)
			runs[j] = JobRun{Job: jobs[j], Logical: res.Logical, Signature: res.Signature, EstCost: res.EstCost, Metrics: m, Hinted: hinted, Flip: flip}
			workload.AppendViewRows(view[off[j]:off[j]:off[j+1]], jobs[j], res, m)
		}
	}
	opts := job.CompileOptions(p.Catalog)
	if err := optimizer.Use(job.Graph, cfg, opts, runAll); err != nil && hinted {
		hinted, flip = false, rules.Flip{}
		_ = optimizer.Use(job.Graph, def, opts, runAll) // on a failure the slots stay empty
	}
}

// Package flighting simulates the SCOPE Flighting Service: a
// pre-production A/B testing environment that re-runs jobs under a
// treatment rule configuration and compares them with the default. The
// simulator reproduces the operational surface the paper describes in
// §4.3: a fixed-size job queue, a per-job timeout, a total time budget,
// cheapest-estimated-cost-first ordering, and the four outcomes (failure,
// timeout, filtered, success).
package flighting

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/workload"
)

// Outcome classifies one flighting attempt.
type Outcome int

const (
	// Success: both arms ran and produced metrics.
	Success Outcome = iota
	// Failure: the job information or input data expired, or the
	// treatment configuration failed to compile.
	Failure
	// Timeout: the flight exceeded the per-job time limit.
	Timeout
	// Filtered: the job belongs to a class the Flighting Service does
	// not support.
	Filtered
	// Skipped: the total flighting budget ran out before this request.
	Skipped
)

var outcomeNames = [...]string{"success", "failure", "timeout", "filtered", "skipped"}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Request asks for one A/B flight of a job under a treatment config.
type Request struct {
	Job       *workload.Job
	Treatment rules.Config
	// EstCost is the treatment's estimated cost, used for
	// cheapest-first ordering.
	EstCost float64
	// Flip is carried through for bookkeeping.
	Flip rules.Flip
	// Compiled, when set, is Job already compiled under Treatment with
	// the service's catalog (see Catalog) into a plan the caller keeps
	// (the recommender's Recompiled), and the flight runs its plan rather
	// than compiling the treatment again; unset, the flight compiles the
	// treatment itself and keeps no plan. A result compiled with another
	// catalog must not be passed: it need not be the plan this service
	// would compile.
	Compiled *optimizer.Result
}

// Result is the outcome of one flighting attempt.
type Result struct {
	Request   Request
	Outcome   Outcome
	Baseline  exec.Metrics
	Treat     exec.Metrics
	HoursUsed float64

	// FutureBaseline/FutureTreat are the metrics of the recurring job's
	// next occurrence under each arm. In production these arrive with the
	// following days' telemetry; the simulator computes them eagerly so
	// the Validation model can be trained on (single flight -> future
	// outcome) pairs, the exact question of §5.3.
	FutureBaseline exec.Metrics
	FutureTreat    exec.Metrics
	HasFuture      bool

	// Err holds the compile error for Failure outcomes caused by the
	// treatment configuration.
	Err error
}

// The service's fixed limits, mirroring the paper's description.
const (
	// perJobTimeoutHours is the per-flight wall-clock cap: "a flight is
	// timed out after 24 hours" (paper §4.3).
	perJobTimeoutHours = 24
	// queueSize is the number of concurrent flighting slots.
	queueSize = 8
	// totalBudgetHours is the total flighting budget per pipeline run.
	totalBudgetHours = 200
	// failedAttemptHours is the set-up cost of a flight that does not
	// run: a filtered or expired job, or a treatment that fails to
	// compile.
	failedAttemptHours = 0.05
)

// Config parameterizes the service.
type Config struct {
	Catalog *rules.Catalog
	Cluster *exec.Cluster
	// Seed drives the A/B run seeds.
	Seed int64
}

// Service runs flights.
type Service struct {
	cfg Config
	// budget is a Run's slot-hours: totalBudgetHours on each of the
	// queueSize slots.
	budget float64
}

// New creates a flighting service; a nil Catalog or Cluster is the
// default one.
func New(cfg Config) *Service {
	if cfg.Catalog == nil {
		cfg.Catalog = rules.NewCatalog()
	}
	if cfg.Cluster == nil {
		cfg.Cluster = exec.DefaultCluster(cfg.Seed)
	}
	return &Service{cfg: cfg, budget: totalBudgetHours * queueSize}
}

// Catalog returns the catalog the service compiles with.
func (s *Service) Catalog() *rules.Catalog { return s.cfg.Catalog }

// classify applies the deterministic failure/filter taxonomy: some job
// classes are unsupported by the Flighting Service, and some inputs have
// expired by the time the offline pipeline runs (the view is ~3 days
// delayed).
func classify(job *workload.Job) Outcome {
	h := job.Template.Hash
	switch {
	case h%17 == 4:
		return Failure // input data expired
	case h%11 == 3:
		return Filtered // unsupported job class
	default:
		return Success
	}
}

// Run processes requests cheapest-estimated-cost-first under the service
// budgets and returns one Result per request (in processing order).
// Requests that do not fit in the budget come back as Skipped, so callers
// can still learn from a partially completed flighting pass — "we flight
// jobs with lower estimated costs first, such that if we finish the total
// time budget, we are still able to provide some suggestion".
//
// Flights execute on a GOMAXPROCS-bounded worker pool. Each flight is a
// pure function of its request, so parallel execution is speculative with
// respect to the budget: chunks of the ordered queue run concurrently,
// then the budget is folded over the chunk sequentially in cheapest-first
// order, reproducing the sequential semantics exactly — including which
// requests come back Skipped — so results are bit-identical at any
// GOMAXPROCS. Only a flight's own arms count against the budget; once it
// is folded, the next-day instances of every successful flight are built
// in one batch (lookAhead) and their arms run on the pool.
func (s *Service) Run(reqs []Request) []Result {
	ordered := append([]Request(nil), reqs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].EstCost < ordered[j].EstCost
	})

	used := 0.0
	results := make([]Result, 0, len(ordered))
	// Chunked speculative execution: bounded wasted work when the budget
	// runs out mid-chunk, full parallelism when it does not (the common
	// case — the paper sizes the budget to cover the queue).
	chunkSize := runtime.GOMAXPROCS(0) * 4
	flights := make([]Result, min(chunkSize, len(ordered)))
	for start := 0; start < len(ordered); start += chunkSize {
		if used >= s.budget {
			// Budget exhausted: everything left is Skipped, uncomputed.
			for _, req := range ordered[start:] {
				results = append(results, Result{Request: req, Outcome: Skipped})
			}
			break
		}
		chunk := ordered[start:min(start+chunkSize, len(ordered))]
		computed := flights[:len(chunk)]
		par.For(len(chunk), func(i int) { computed[i] = s.flightOne(chunk[i]) })
		// Sequential budget fold over the chunk, in queue order.
		for i, req := range chunk {
			if used >= s.budget {
				results = append(results, Result{Request: req, Outcome: Skipped})
				continue
			}
			used += computed[i].HoursUsed
			results = append(results, computed[i])
		}
	}

	lookAhead(results)
	par.For(len(results), func(i int) {
		if results[i].Outcome == Success {
			s.future(&results[i])
		}
	})
	return results
}

// lookAhead builds, through workload.Prefetch, the next-day instance of
// the template of every successful flight of results, which is what the
// flights' future arms instantiate and nothing more, in one batch per
// date of the flights' jobs.
func lookAhead(results []Result) {
	var dates []int
	for _, r := range results {
		if r.Outcome == Success && !slices.Contains(dates, r.Request.Job.Date) {
			dates = append(dates, r.Request.Job.Date)
		}
	}
	templates := make([]*workload.Template, 0, len(results))
	for _, date := range dates {
		templates = templates[:0]
		for _, r := range results {
			if r.Outcome == Success && r.Request.Job.Date == date {
				templates = append(templates, r.Request.Job.Template)
			}
		}
		workload.Prefetch(date+1, templates)
	}
}

// flightOne runs a single A/B comparison, the flight's own arms: its
// Result but for the next occurrence's metrics (future). Each arm runs
// inside its own compilation (run) and keeps no plan. The arms compile
// one after the other, so a flight holds one pooled builder at a time,
// and a flight keeps both arms' metrics or neither's: the baseline's are
// dropped when the treatment fails to compile.
func (s *Service) flightOne(req Request) Result {
	out := Result{Request: req}
	if o := classify(req.Job); o != Success {
		out.Outcome = o
		out.HoursUsed = failedAttemptHours
		return out
	}
	job := req.Job
	opts := job.CompileOptions(s.cfg.Catalog)
	seed := flightSeed(s.cfg.Seed, job)

	var base exec.Metrics
	if err := s.run(&base, job, s.cfg.Catalog.DefaultConfig(), opts, seed); err != nil {
		out.Outcome = Failure
		out.Err = err
		return out
	}
	if req.Compiled != nil {
		out.Treat = exec.Run(req.Compiled.Plan, job.Truth, job.Stats, s.cfg.Cluster, seed+1)
	} else if err := s.run(&out.Treat, job, req.Treatment, opts, seed+1); err != nil {
		out.Outcome = Failure
		out.Err = err
		out.HoursUsed = failedAttemptHours
		return out
	}
	out.Baseline = base

	hours := (out.Baseline.LatencySec + out.Treat.LatencySec) / 3600
	if out.Baseline.LatencySec/3600 > perJobTimeoutHours ||
		out.Treat.LatencySec/3600 > perJobTimeoutHours {
		out.Outcome = Timeout
		out.HoursUsed = perJobTimeoutHours
		return out
	}
	out.Outcome = Success
	out.HoursUsed = hours
	return out
}

// future runs a successful flight's arms on the next occurrence of the
// recurring template, for validation labels, and keeps both arms' metrics
// or neither's. The occurrence's instance, which Run's lookAhead built,
// is the one tomorrow's JobsForDay hands out, rewrites and all.
func (s *Service) future(out *Result) {
	job := out.Request.Job
	future, err := job.Template.Instantiate(job.Date+1, job.Seq)
	if err != nil {
		return
	}
	fOpts := future.CompileOptions(s.cfg.Catalog)
	seed := flightSeed(s.cfg.Seed, job)
	var fBase, fTreat exec.Metrics
	if s.run(&fBase, future, s.cfg.Catalog.DefaultConfig(), fOpts, seed+77) == nil && s.run(&fTreat, future, out.Request.Treatment, fOpts, seed+78) == nil {
		out.FutureBaseline, out.FutureTreat, out.HasFuture = fBase, fTreat, true
	}
}

// flightSeed is the seed of job's flight under the service seed: its
// arms run with it plus 0 and 1, its next occurrence's plus 77 and 78.
func flightSeed(seed int64, job *workload.Job) int64 {
	return seed + int64(job.Date)*1000003 + int64(len(job.ID))
}

// run compiles job's graph under cfg and runs the plan, inside its
// compilation (optimizer.Use), on the job's truth with seed into m. It
// returns the compilation's error and leaves m as it was on one.
func (s *Service) run(m *exec.Metrics, job *workload.Job, cfg rules.Config, opts optimizer.Options, seed int64) error {
	return optimizer.Use(job.Graph, cfg, opts, func(res *optimizer.Result) {
		*m = exec.Run(res.Plan, job.Truth, job.Stats, s.cfg.Cluster, seed)
	})
}

// Successes filters results down to successful flights.
func Successes(results []Result) []Result {
	var ok []Result
	for _, r := range results {
		if r.Outcome == Success {
			ok = append(ok, r)
		}
	}
	return ok
}

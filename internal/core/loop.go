package core

import (
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// RunLoop runs the paper's Figure-1 deployment loop on a synthetic
// recurring workload derived from seed: on each of days simulated days
// production executes every job under the hints uploaded so far, then the
// offline pipeline processes that day's telemetry and uploads a fresh
// hint file to the advisor's SIS store. Logging is off-policy: uniform at
// random for the first third of the days, the learned policy afterwards.
// eachDay, when non-nil, sees every day's production runs and pipeline
// report.
func RunLoop(cat *rules.Catalog, seed int64, templates, days int, eachDay func(day int, runs []JobRun, rep *DayReport)) (*Advisor, error) {
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: templates, MaxDailyInstances: 2})
	if err != nil {
		return nil, err
	}
	return runLoop(cat, gen, seed, days, eachDay)
}

// runLoop is RunLoop on the workload gen, generated from seed.
func runLoop(cat *rules.Catalog, gen *workload.Generator, seed int64, days int, eachDay func(day int, runs []JobRun, rep *DayReport)) (*Advisor, error) {
	cluster := exec.DefaultCluster(seed)
	store := sis.NewStore(cat)
	adv := NewAdvisor(cat, store, Config{
		Seed:      seed,
		Flighting: flighting.Config{Catalog: cat, Cluster: cluster, Seed: seed + 5},
	})
	prod := NewProduction(cat, store, cluster, seed+9)

	for day := 1; day <= days; day++ {
		adv.CB.Uniform = day <= days/3
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			return nil, err
		}
		runs, view, err := prod.RunDay(day, jobs)
		if err != nil {
			return nil, err
		}
		rep, err := adv.RunDay(day, jobs, view)
		if err != nil {
			return nil, err
		}
		if eachDay != nil {
			eachDay(day, runs, rep)
		}
	}
	return adv, nil
}

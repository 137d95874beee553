package core

import (
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// runDayAllocCeiling is TestRunDayAllocBudget's: measured (86.3, go1.24)
// + 5 %. The same days cost 954.6 per job while every recurrence was
// instantiated, rewritten and lowered from scratch through per-call maps,
// and 256.4 while every (template, date) was parsed and compiled from its
// substituted source and every rewrite deep-copied its input's payloads.
const runDayAllocCeiling = 91

// TestRunDayAllocBudget gates what one production job allocates end to
// end — instantiated, compiled under the store's hints, executed, turned
// into view rows — over one day of the ledger's first 40 templates. The
// offline pipeline's allocation budget is this plus the advisor's
// recompilations.
func TestRunDayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	gen, err := workload.New(workload.Config{Seed: 20211101, NumTemplates: 40})
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	prod := NewProduction(cat, sis.NewStore(cat), exec.DefaultCluster(1), 5)
	day := 1
	jobs := 0
	// A new date per run: every (template, date) is bound for the first
	// time, as on a pipeline day.
	got := testing.AllocsPerRun(5, func() {
		day++
		js, err := gen.JobsForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := prod.RunDay(day, js); err != nil {
			t.Fatal(err)
		}
		jobs = len(js)
	})
	perJob := got / float64(jobs)
	t.Logf("%d jobs: %.1f allocs per job (JobsForDay + RunDay)", jobs, perJob)
	if perJob > runDayAllocCeiling {
		t.Errorf("%.1f allocs per production job, ceiling %d", perJob, runDayAllocCeiling)
	}
}

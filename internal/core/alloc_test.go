package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// TestRunDayAllocBudget gates what one production job allocates end to
// end — instantiated, compiled under the store's hints, executed, turned
// into view rows — over one day of the ledger's first 40 templates. The
// offline pipeline's allocation budget is this plus the advisor's
// recompilations.
func TestRunDayAllocBudget(t *testing.T) {
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
	budget.Gate(t, "core.run_day", func() float64 {
		perDay := testing.AllocsPerRun(5, func() {
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
		return perDay / float64(jobs)
	})
}

// TestAdvisorDayAllocBudget gates what the advisor allocates per job over
// its first day of the ledger's first 40 templates, run after that day's
// production: features and every template's span, ranks,
// recompilations, flights and validation. TestRunDayAllocBudget gates
// production's share of a pipeline day; this is the rest.
func TestAdvisorDayAllocBudget(t *testing.T) {
	// One worker throughout, as testing.AllocsPerRun measures: the
	// advisor then finds the pools production warmed, and the count is
	// the same on every machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const seed = 20211101
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: 40})
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	store := sis.NewStore(cat)
	prod := NewProduction(cat, store, exec.DefaultCluster(seed), seed+12)
	adv := NewAdvisor(cat, store, Config{
		Seed:      seed,
		Flighting: flighting.Config{Catalog: cat, Cluster: exec.DefaultCluster(seed), Seed: seed + 5},
	})
	var view []workload.ViewRow
	var jobs []*workload.Job
	for day := 0; day <= 1; day++ { // day 0's view is day 1's input
		if jobs, err = gen.JobsForDay(day); err != nil {
			t.Fatal(err)
		}
		if _, view, err = prod.RunDay(day, jobs); err != nil {
			t.Fatal(err)
		}
	}
	adv.CB.Uniform = true // the pipeline's first days explore uniformly
	// No collection while it runs: one would empty the pools production
	// warmed at a moment the heap decides (the table row says why the
	// pools stay).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	budget.Mallocs(t, "core.advisor_day", func() int {
		if _, err := adv.RunDay(1, jobs, view); err != nil {
			t.Fatal(err)
		}
		return len(jobs)
	})
}

// TestOfflineLegRetainedHeap gates what the offline leg keeps alive once a
// run of days is over: after JobsForDay(d) each template memoizes no date
// before d — only d and the look-ahead to d+1 flighting built — and the
// heap that the generator, production and the advisor retain stays in
// budget.
func TestOfflineLegRetainedHeap(t *testing.T) {
	const seed, templates, days = 20211101, 40, 10
	var gen *workload.Generator
	var prod *Production
	var adv *Advisor
	budget.Retained(t, "core.offline_leg", func() int {
		var err error
		if gen, err = workload.New(workload.Config{Seed: seed, NumTemplates: templates}); err != nil {
			t.Fatal(err)
		}
		cat := rules.NewCatalog()
		store := sis.NewStore(cat)
		prod = NewProduction(cat, store, exec.DefaultCluster(seed), seed+12)
		adv = NewAdvisor(cat, store, Config{
			Seed:      seed,
			Flighting: flighting.Config{Catalog: cat, Cluster: exec.DefaultCluster(seed), Seed: seed + 5},
		})
		for day := 0; day <= days; day++ {
			jobs, err := gen.JobsForDay(day)
			if err != nil {
				t.Fatal(err)
			}
			_, view, err := prod.RunDay(day, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if day == 0 {
				continue // day 0's view is day 1's input
			}
			adv.CB.Uniform = day <= 2
			if _, err := adv.RunDay(day, jobs, view); err != nil {
				t.Fatal(err)
			}
		}
		return 1 << 20 // in MB
	})
	runtime.KeepAlive(gen)
	runtime.KeepAlive(prod)
	runtime.KeepAlive(adv)
}

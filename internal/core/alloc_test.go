package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// runDayAllocCeiling is TestRunDayAllocBudget's: measured (13.5, go1.24,
// at GOMAXPROCS 1 and 2) + 5 %. The same days cost 954.6 per job while every recurrence was
// instantiated, rewritten and lowered from scratch through per-call maps,
// 256.4 while every (template, date) was parsed and compiled from its
// substituted source and every rewrite deep-copied its input's payloads,
// 86.3 while production's rewrites went into one memo per day rather
// than one per instance, which the pipeline then reuses, 89.1 while
// Graph.Clone allocated each node and each Inputs on its own and a
// compilation's signature and estimation environment escaped to the heap,
// 69.6 while lowering built its plan in place rather than in the pooled
// builder's scratch, published in a handful of exact slabs, and 58.9
// while exec.Run built a cardinality engine, its row counts and its stage
// accumulators afresh for every job and the view rows grouped each tree's
// nodes in a map of their own, and 45.5 while an instance's dated strings,
// distinct counts, spine nodes and literals were each an allocation of
// their own and every recurrence a copy of the instance's first job, and
// 29.4 while every recurrence compiled its instance again rather than
// sharing one compilation with the day's other recurrences, and 25.8
// while the rewrite memo kept an exact-key singleflight level in front of
// its certificates and the instance memo was a generator-wide FIFO, and
// 22.8 while a rewrite's working copy was a heap Clone and every node it
// made a heap node with heap Inputs, and 18.2 while every rule that moved
// an expression through a rename or a projection built a map of it and
// copied every node of the expression, renamed or not, and 17.1 while an
// instance's facts were three maps keyed by dated string, every keyed
// partitioning scheme a string of its own and a plan's stages had a
// pointer slab.
const runDayAllocCeiling = 14.2

// retainedHeapCeilingMB is TestOfflineLegRetainedHeap's: measured (4.08
// MB, go1.24, 4.07–4.08 at GOMAXPROCS 1 and 2; 4.19 and 4.10 after 20 and
// 40 days) + 10 %. The same days retained 14.28 MB while the advisor kept
// every rewrite for the life of the process and the generator every
// (template, date) graph up to 4,096 of them, 6.49 MB while every
// configuration of an instance kept a rewrite of its own, 6.07 MB while
// the offline learner kept the features of every decision it had
// trained, and 4.64 MB while each template kept yesterday's instance
// memoized beside today's.
const retainedHeapCeilingMB = 4.5

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
		t.Errorf("%.1f allocs per production job, ceiling %.1f", perJob, runDayAllocCeiling)
	}
}

// advisorDayAllocCeiling is TestAdvisorDayAllocBudget's: measured (19.9–20.0,
// go1.24) + 5 %. The same day cost 30.3–30.4 per job while the span search
// and every recommended flip's recompilation published a plan that only
// its estimated cost and signature were read from.
const advisorDayAllocCeiling = 21.0

// TestAdvisorDayAllocBudget gates what the advisor allocates per job over
// its first day of the ledger's first 40 templates, run after that day's
// production: features and every template's span, ranks,
// recompilations, flights and validation. TestRunDayAllocBudget gates
// production's share of a pipeline day; this is the rest.
func TestAdvisorDayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
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
	// warmed at a moment the heap decides.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := adv.RunDay(1, jobs, view)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / float64(len(jobs))
	t.Logf("%d jobs, %d recommendations, %d flights: %.1f allocs per job (Advisor.RunDay)", len(jobs), rep.Recommendations, rep.FlightsRequested, perJob)
	if perJob > advisorDayAllocCeiling {
		t.Errorf("%.1f allocs per advisor job, ceiling %.1f", perJob, advisorDayAllocCeiling)
	}
}

// TestOfflineLegRetainedHeap gates what the offline leg keeps alive once a
// run of days is over: after JobsForDay(d) each template memoizes no date
// before d — only d and the look-ahead to d+1 flighting built — and the
// heap that the generator, production and the advisor
// retain stays under retainedHeapCeilingMB.
func TestOfflineLegRetainedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const seed, templates, days = 20211101, 40, 10
	live := func() int64 {
		// Twice: the first cycle moves sync.Pool contents to the victim
		// cache, the second frees them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: templates})
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
	retained := float64(live()-before) / (1 << 20)
	runtime.KeepAlive(prod)
	runtime.KeepAlive(adv)
	t.Logf("%d templates, %d days: %d instances built, %.2f MB retained", templates, days, gen.CompileCacheStats().Misses, retained)
	if retained > retainedHeapCeilingMB {
		t.Errorf("%.2f MB retained, ceiling %.1f", retained, retainedHeapCeilingMB)
	}
}

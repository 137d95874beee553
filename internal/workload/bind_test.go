package workload

import (
	"reflect"
	"sync"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// TestBindMatchesCompile: binding a template's prepared script gives, on
// every field of every node, column sources included, the graph that
// compiling its substituted source gives — for every template of the
// ledger population and of a second seed's, on dates whose stamp has one,
// two and three significant digits. (TestInstantiateSharedParts holds
// Instantiate, which binds, to compiling the substituted source.)
func TestBindMatchesCompile(t *testing.T) {
	for _, seed := range []int64{20211101, 7} {
		gen, err := New(Config{Seed: seed, NumTemplates: 222})
		if err != nil {
			t.Fatal(err)
		}
		for _, tpl := range gen.Templates() {
			olds := append([]string{"@DATE@"}, tpl.Literals...)
			for _, date := range []int{0, 1, 9, 10, 99, 100, 365} {
				values := []string{dateStamp(date)}
				for _, lit := range tpl.Literals {
					values = append(values, litValueRef(tpl, lit, date))
				}
				want, err := scope.CompileScript(string(appendSubstitute(nil, tpl.ScriptPattern, olds, values)))
				if err != nil {
					t.Fatalf("seed %d %s date %d: %v", seed, tpl.ID, date, err)
				}
				got, err := tpl.prepared.Bind(tpl.names, values)
				if err != nil {
					t.Fatalf("seed %d %s date %d: Bind: %v", seed, tpl.ID, date, err)
				}
				if d := graphDiff(got, want); d != "" {
					t.Fatalf("seed %d %s date %d: Bind differs from compiling the substituted source: %s", seed, tpl.ID, date, d)
				}
			}
		}
	}
}

// TestGraphMemoHitsShareGraphs: today's and tomorrow's instances both stay
// memoized — a repeat of either is a hit returning the identical graph,
// statistics and rewrite memo — and two dates are two instances.
func TestGraphMemoHitsShareGraphs(t *testing.T) {
	gen, err := New(Config{Seed: 3, NumTemplates: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := gen.Templates()[0]
	base := gen.CompileCacheStats() // New binds day 1 of each template to check it
	inst := func(date, seq int) *Job {
		t.Helper()
		j, err := tpl.Instantiate(date, seq)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	same := func(a, b *Job) bool {
		return a.Graph == b.Graph && a.Truth == b.Truth && a.facts == b.facts &&
			reflect.ValueOf(a.Stats).Pointer() == reflect.ValueOf(b.Stats).Pointer()
	}
	today, tomorrow := inst(10, 0), inst(11, 0)
	if !same(inst(10, 1), today) || !same(inst(11, 0), tomorrow) {
		t.Error("a repeat of today or tomorrow must return the memoized instance")
	}
	if same(today, tomorrow) {
		t.Error("two dates must be two instances")
	}
	st := gen.CompileCacheStats()
	if h, m := st.Hits-base.Hits, st.Misses-base.Misses; h != 2 || m != 2 {
		t.Errorf("%d hits / %d misses, want 2 / 2", h, m)
	}
}

// TestInstanceMemoKeepsTwoDates: a template memoizes the instances of the
// two dates it built last. After dates d, d+1 and d+2, date d+1 still
// hits, handing out the identical job, and date d is built again.
func TestInstanceMemoKeepsTwoDates(t *testing.T) {
	gen, err := New(Config{Seed: 3, NumTemplates: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := func(date int) *Job {
		t.Helper()
		j, err := gen.Templates()[0].Instantiate(date, 0)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	first, second, _ := inst(20), inst(21), inst(22)
	base := gen.CompileCacheStats()
	if inst(21) != second {
		t.Error("date d+1 was rebuilt after date d+2")
	}
	if again := inst(20); again == first || again.ID != first.ID {
		t.Error("date d must be built again, as the same job")
	}
	if st := gen.CompileCacheStats(); st.Hits != base.Hits+1 || st.Misses != base.Misses+1 {
		t.Errorf("lookups %+v after %+v, want a hit for d+1 and a miss for d", st, base)
	}
}

// TestJobsForDayRetiresPastDates: JobsForDay(d) leaves a template
// memoizing no date before d, while Instantiate retires nothing. Day 1 is
// a hit after day 0, since New built it; a look-ahead to d+1 after
// JobsForDay(d) sits beside d; and after JobsForDay(d+1), d is built
// again, as a new job with the same ID.
func TestJobsForDayRetiresPastDates(t *testing.T) {
	gen, err := New(Config{Seed: 3, NumTemplates: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := gen.Templates()[0]
	step := 0
	lookup := func(get func() (*Job, error), wantHit bool) *Job {
		t.Helper()
		step++
		before := gen.CompileCacheStats()
		j, err := get()
		if err != nil {
			t.Fatal(err)
		}
		st := gen.CompileCacheStats()
		if hit := st.Hits == before.Hits+1 && st.Misses == before.Misses; hit != wantHit {
			t.Errorf("step %d: lookups %+v after %+v, want hit = %v", step, st, before, wantHit)
		}
		return j
	}
	day := func(date int) func() (*Job, error) {
		return func() (*Job, error) {
			jobs, err := gen.JobsForDay(date)
			if err != nil {
				return nil, err
			}
			return jobs[0], nil
		}
	}
	inst := func(date int) func() (*Job, error) {
		return func() (*Job, error) { return tpl.Instantiate(date, 0) }
	}

	lookup(day(0), false)
	d := lookup(day(1), true) // New built day 1, and JobsForDay(0) retired no later date
	next := lookup(inst(2), false)
	if lookup(inst(1), true) != d {
		t.Error("a look-ahead to d+1 must keep d memoized beside it")
	}
	if lookup(inst(2), true) != next {
		t.Error("a repeat of the look-ahead must return its job")
	}
	if lookup(day(2), true) != next {
		t.Error("JobsForDay(d+1) must hand out the look-ahead's job")
	}
	if again := lookup(inst(1), false); again == d || again.ID != d.ID {
		t.Error("after JobsForDay(d+1), date d must be built again, as a new job with the same ID")
	}
}

// TestInstantiateConcurrentSharesGraph: concurrent instantiations of one
// (template, date) bind it once and share the graph.
func TestInstantiateConcurrentSharesGraph(t *testing.T) {
	gen, err := New(Config{Seed: 3, NumTemplates: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := gen.Templates()[0]
	before := gen.CompileCacheStats().Misses
	const n = 16
	graphs := make([]*scope.Graph, n)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := tpl.Instantiate(42, i%tpl.DailyInstances)
			if err != nil {
				t.Error(err)
				return
			}
			graphs[i] = j.Graph
			_ = j.Graph.TemplateHash() // the memoized hash, concurrently
		}()
	}
	wg.Wait()
	for _, g := range graphs[1:] {
		if g != graphs[0] {
			t.Fatal("concurrent instantiations of one (template, date) must share a graph")
		}
	}
	if got := gen.CompileCacheStats().Misses - before; got != 1 {
		t.Errorf("%d binds, want 1", got)
	}
}

// TestInstanceJobsShareOneBlock: every job of an instance, handed out to
// goroutines that compile it at once, points into one facts block — its
// graph header, truth, statistics and rewrite memo — and the memo, shared
// by all of them, rewrites the instance once under one configuration.
func TestInstanceJobsShareOneBlock(t *testing.T) {
	gen, err := New(Config{Seed: 5, NumTemplates: 8})
	if err != nil {
		t.Fatal(err)
	}
	var tpl *Template
	for _, c := range gen.Templates() {
		if tpl == nil || c.DailyInstances > tpl.DailyInstances {
			tpl = c
		}
	}
	if tpl.DailyInstances < 2 {
		t.Fatal("no template recurs more than once a day")
	}
	cat := rules.NewCatalog()
	const n = 16
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := tpl.Instantiate(7, i%tpl.DailyInstances)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := optimizer.Optimize(j.Graph, cat.DefaultConfig(), j.CompileOptions(cat)); err != nil {
				t.Error(err)
			}
			jobs[i] = j
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	f := jobs[0].facts
	for i, j := range jobs {
		if j.facts != f {
			t.Fatalf("job %d (seq %d) has facts of its own", i, j.Seq)
		}
		if j.Graph != &f.graph || j.Truth != &f.truth || j.Stats != optimizer.StatsProvider(&f.stats) {
			t.Errorf("job %d: graph, truth or statistics outside the instance's facts", i)
		}
		if c := j.CompileOptions(cat).Cache; c != &f.rewrites {
			t.Errorf("job %d compiles through a memo outside the instance's facts", i)
		}
	}
	if st := f.rewrites.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("the instance's memo read %+v over %d compilations, want 1 miss and %d hits", st, n, n-1)
	}
}

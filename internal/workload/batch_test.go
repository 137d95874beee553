package workload

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// instanceDiff describes how job a's instance differs from job b's: the
// graph's rendering, template hash and every field of every node, the
// truth, the statistics and the IDs of every job of the instance.
func instanceDiff(a, b *Job) string {
	if a.Graph.String() != b.Graph.String() || a.Graph.TemplateHash() != b.Graph.TemplateHash() {
		return "the graphs render or hash differently"
	}
	if d := graphDiff(a.Graph, b.Graph); d != "" {
		return "graph: " + d
	}
	if !reflect.DeepEqual(*a.Truth, *b.Truth) {
		return fmt.Sprintf("truth %+v, want %+v", *a.Truth, *b.Truth)
	}
	if sa, sb := a.Stats.(*instanceStats), b.Stats.(*instanceStats); !reflect.DeepEqual(*sa, *sb) {
		return fmt.Sprintf("statistics %+v, want %+v", *sa, *sb)
	}
	if a.ID != b.ID || a.Date != b.Date || a.Seq != b.Seq || a.Tokens != b.Tokens {
		return fmt.Sprintf("job %s date %d seq %d tokens %d, want %s %d %d %d", a.ID, a.Date, a.Seq, a.Tokens, b.ID, b.Date, b.Seq, b.Tokens)
	}
	return ""
}

// datedStrings lists every string of job's instance that is cut from its
// batch's string block (a lone instance's own two strings): the job's ID,
// the truth's dated paths and site keys, and the bound graph's strings
// holding the date stamp — scan and output paths and column sources.
func datedStrings(j *Job) []string {
	out := []string{j.ID}
	out = append(out, j.Truth.Paths...)
	out = append(out, j.Truth.Sites...)
	stamp := dateStamp(j.Date)
	for _, n := range j.Graph.Nodes() {
		for _, s := range []string{n.TablePath, n.OutPath} {
			if strings.Contains(s, stamp) {
				out = append(out, s)
			}
		}
		for _, c := range slices.Concat(n.Cols, n.GroupBy) {
			if strings.Contains(c.Source, stamp) {
				out = append(out, c.Source)
			}
		}
	}
	return out
}

// TestJobsForDayMatchesLoneInstantiate: every job a JobsForDay batch hands
// out, for every ledger template on dates 0, 1, 7 and 30, equals the one
// a lone Instantiate builds on a fresh generator, every dated string
// (datedStrings) included. The dates run backwards, so each JobsForDay
// finds its date in no memo but the look-ahead's: every third template's
// instance was built alone before the batch, which then hands that one out
// and builds the rest, and the dated strings of the instances it builds
// all lie in one block of the size it reserved for them.
func TestJobsForDayMatchesLoneInstantiate(t *testing.T) {
	cfg := Config{Seed: 20211101, NumTemplates: 222}
	gen, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	index := map[*Template]int{}
	for i, tpl := range gen.Templates() {
		index[tpl] = i
	}
	for _, date := range []int{30, 7, 1, 0} {
		ahead, aheadOf := map[*Job]bool{}, map[*Template]bool{}
		for i, tpl := range gen.Templates() {
			if i%3 == 0 {
				j, err := tpl.Instantiate(date, 0)
				if err != nil {
					t.Fatal(err)
				}
				ahead[j], aheadOf[tpl] = true, true
			}
		}
		before := gen.CompileCacheStats()
		jobs, err := gen.JobsForDay(date)
		if err != nil {
			t.Fatal(err)
		}
		st := gen.CompileCacheStats()
		if hits, misses := st.Hits-before.Hits, st.Misses-before.Misses; hits != uint64(len(ahead)) || misses != uint64(len(gen.Templates())-len(ahead)) {
			t.Fatalf("date %d: %d hits / %d misses, want %d look-aheads handed out and the rest built", date, hits, misses, len(ahead))
		}
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		held, reserved := 0, 0
		lo, hi := uintptr(math.MaxUint), uintptr(0)
		for _, got := range jobs {
			if ahead[got] {
				held++
			}
			want, err := fresh.Templates()[index[got.Template]].Instantiate(date, got.Seq)
			if err != nil {
				t.Fatal(err)
			}
			if d := instanceDiff(got, want); d != "" {
				t.Fatalf("date %d %s: the batch's instance differs from a lone one: %s", date, got.ID, d)
			}
			gs, ws := datedStrings(got), datedStrings(want)
			if !slices.Equal(gs, ws) {
				t.Fatalf("date %d %s: dated strings %q, a lone build's %q", date, got.ID, gs, ws)
			}
			if aheadOf[got.Template] {
				continue
			}
			if got.Seq == 0 {
				reserved += got.Template.strBytes
			}
			for _, s := range gs {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
				lo, hi = min(lo, p), max(hi, p+uintptr(len(s)))
			}
		}
		if hi-lo > uintptr(reserved) {
			t.Errorf("date %d: the batch's dated strings span %d bytes, more than the %d its one block holds", date, hi-lo, reserved)
		}
		if held != len(ahead) {
			t.Errorf("date %d: %d look-ahead jobs handed out, %d built", date, held, len(ahead))
		}
	}
}

// TestJobsForDayConcurrentWithInstantiate: while JobsForDay(d) reserves
// and builds its batch, other goroutines instantiate every job of d of
// the same templates, each in its own order. Every caller gets the same
// *Job for a (template, seq), equal to the from-scratch reference, and a
// repeat of JobsForDay(d) hands out the same jobs.
func TestJobsForDayConcurrentWithInstantiate(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 16})
	if err != nil {
		t.Fatal(err)
	}
	type slot struct {
		tpl *Template
		seq int
	}
	var slots []slot
	for _, tpl := range gen.Templates() {
		for seq := 0; seq < tpl.DailyInstances; seq++ {
			slots = append(slots, slot{tpl, seq})
		}
	}
	const workers = 4
	for _, date := range []int{3, 4, 5} {
		got := make([][]*Job, workers)
		var day []*Job
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs, err := gen.JobsForDay(date)
			if err != nil {
				t.Error(err)
			}
			day = jobs
		}()
		for w := range got {
			got[w] = make([]*Job, len(slots))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range slots {
					k := (i + w*len(slots)/workers) % len(slots)
					if w%2 == 1 {
						k = len(slots) - 1 - k
					}
					j, err := slots[k].tpl.Instantiate(date, slots[k].seq)
					if err != nil {
						t.Error(err)
						return
					}
					got[w][k] = j
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		again, err := gen.JobsForDay(date)
		if err != nil {
			t.Fatal(err)
		}
		if len(day) != len(slots) {
			t.Fatalf("date %d: JobsForDay gave %d jobs, the templates run %d", date, len(day), len(slots))
		}
		for k, job := range day {
			if again[k] != job {
				t.Fatalf("date %d: a repeat of JobsForDay hands out %p for %s, the first %p", date, again[k], job.ID, job)
			}
			for w := range got {
				if got[w][k] != job {
					t.Fatalf("date %d: worker %d got %p for %s, JobsForDay handed out %p", date, w, got[w][k], job.ID, job)
				}
			}
			if d, err := refDiff(job); err != nil {
				t.Fatal(err)
			} else if d != "" {
				t.Errorf("date %d %s: %s", date, job.ID, d)
			}
		}
	}
}

// TestJobsForDayBetweenPasses: between the two passes of JobsForDay's
// Prefetch, one template's missing instance is built by a direct
// Instantiate, and another's look-ahead instance, which the first pass
// found memoized, is pushed out of its memo by two later dates. The
// second pass leaves the first one's room in the batch unused, JobsForDay
// hands out its Instantiate-built job and builds the second one alone, and
// every job still equals the from-scratch reference.
func TestJobsForDayBetweenPasses(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 6})
	if err != nil {
		t.Fatal(err)
	}
	const date = 8
	filled, lost := gen.Templates()[0], gen.Templates()[1]
	ahead, err := lost.Instantiate(date, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, missing := reserveMissing(date, gen.Templates())
	if len(missing) != len(gen.Templates())-1 || missing[0] != filled || slices.Contains(missing, lost) {
		t.Fatalf("reserved room for %d templates: want every one but the look-ahead's, the first among them", len(missing))
	}
	direct, err := filled.Instantiate(date, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, later := range []int{date + 1, date + 2} {
		if _, err := lost.Instantiate(later, 0); err != nil {
			t.Fatal(err)
		}
	}
	buildReserved(date, &b, missing)
	if len(b.facts) != 1 || len(b.jobs) != filled.DailyInstances {
		t.Errorf("%d facts blocks and %d jobs of room left, want the filled instance's 1 and %d", len(b.facts), len(b.jobs), filled.DailyInstances)
	}
	jobs, err := gen.jobsOn(date)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0] != direct {
		t.Errorf("JobsForDay handed out %p for %s, not the job Instantiate built between the passes", jobs[0], direct.ID)
	}
	for _, j := range jobs {
		if j.Template == lost && j.Seq == 0 && (j == ahead || j.ID != ahead.ID) {
			t.Errorf("%s: want a new job built alone, with the look-ahead's ID", j.ID)
		}
		if d, err := refDiff(j); err != nil {
			t.Fatal(err)
		} else if d != "" {
			t.Errorf("%s: %s", j.ID, d)
		}
	}
}

// batchSlabs reports, for every slab of the batch JobsForDay(date) builds
// on gen — the job, facts, key, float and bound graph node slabs, its
// string block, and the node, graph-header, column and predicate chunks of
// the store its instances keep their rewrites in — whether it is still
// alive, through a weak pointer into it. It compiles every instance of the
// day once, as production does, and keeps no job of the day and no
// compilation.
func batchSlabs(t *testing.T, gen *Generator, date int) map[string]func() bool {
	t.Helper()
	before := gen.CompileCacheStats().Misses
	jobs, err := gen.JobsForDay(date)
	if err != nil {
		t.Fatal(err)
	}
	if built := gen.CompileCacheStats().Misses - before; built != uint64(len(gen.Templates())) {
		t.Fatalf("JobsForDay(%d) built %d instances of %d templates; the batch is not the whole day", date, built, len(gen.Templates()))
	}
	cat := rules.NewCatalog()
	var kept *scope.Graph
	var cols *scope.Column
	var pred *scope.BinaryExpr
	for _, j := range jobs {
		if j.Seq != 0 {
			continue
		}
		res, err := optimizer.Optimize(j.Graph, cat.DefaultConfig(), j.CompileOptions(cat))
		if err != nil {
			t.Fatal(err)
		}
		if kept == nil {
			kept = res.Logical
		}
		c, p := rewriteAdds(j.Graph, res.Logical)
		cols, pred = cmp.Or(cols, c), cmp.Or(pred, p)
	}
	if cols == nil || pred == nil {
		t.Fatalf("no rewrite of day %d added a column list (%v) or a predicate (%v)", date, cols != nil, pred != nil)
	}
	j := jobs[0]
	return map[string]func() bool{
		"jobs":              alive(j),
		"facts":             alive(j.facts),
		"keys":              alive(&j.Truth.Paths[0]),
		"floats":            alive(&j.Truth.Rows[0]),
		"nodes":             alive(j.Graph.Roots[0]),
		"strings":           alive(unsafe.StringData(j.ID)),
		"rewrite nodes":     alive(kept.Roots[0]),
		"rewrite graphs":    alive(kept),
		"rewrite columns":   alive(cols),
		"rewrite predicate": alive(pred),
	}
}

// walkBinary calls f on every BinaryExpr of e.
func walkBinary(e scope.Expr, f func(*scope.BinaryExpr)) {
	switch x := e.(type) {
	case *scope.BinaryExpr:
		f(x)
		walkBinary(x.Left, f)
		walkBinary(x.Right, f)
	case *scope.UnaryExpr:
		walkBinary(x.Expr, f)
	case *scope.FuncExpr:
		for _, a := range x.Args {
			walkBinary(a, f)
		}
	}
}

// rewriteAdds returns the first element of a column list, and a predicate
// node, that rewritten holds and the graph it was rewritten from does not:
// what the rewrite cut from its store. Either is nil when there is none.
func rewriteAdds(from, rewritten *scope.Graph) (*scope.Column, *scope.BinaryExpr) {
	had := map[any]bool{}
	for _, n := range from.Nodes() {
		for _, cs := range [][]scope.Column{n.Cols, n.GroupBy} {
			if len(cs) > 0 {
				had[&cs[0]] = true
			}
		}
		walkBinary(n.Pred, func(b *scope.BinaryExpr) { had[b] = true })
		walkBinary(n.JoinCond, func(b *scope.BinaryExpr) { had[b] = true })
	}
	var cols *scope.Column
	var pred *scope.BinaryExpr
	for _, n := range rewritten.Nodes() {
		for _, cs := range [][]scope.Column{n.Cols, n.GroupBy} {
			if len(cs) > 0 && !had[&cs[0]] && cols == nil {
				cols = &cs[0]
			}
		}
		for _, e := range []scope.Expr{n.Pred, n.JoinCond} {
			walkBinary(e, func(b *scope.BinaryExpr) {
				if !had[b] && pred == nil {
					pred = b
				}
			})
		}
	}
	return cols, pred
}

// alive reports, through a weak pointer to *p, whether the object holding
// *p is still reachable.
func alive[T any](p *T) func() bool {
	wp := weak.Make(p)
	return func() bool { return wp.Value() != nil }
}

// TestJobsForDayFreesPastBatch: a day's instances share their batch's
// slabs, its string block and the store their rewrites, and the column
// lists and predicates those add, are kept in, so one instance a consumer
// keeps keeps the whole day. Once every instance of day d has compiled and
// JobsForDay(d+1) has retired day d, and nothing else holds a day-d job or
// compilation, one collection frees every slab of day d's batch, its
// string block and every chunk of its store: neither the memo, a pooled
// scratch nor the generator pins them.
func TestJobsForDayFreesPastBatch(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 12})
	if err != nil {
		t.Fatal(err)
	}
	const day = 4
	slabs := batchSlabs(t, gen, day)
	next, err := gen.JobsForDay(day + 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	for slab, alive := range slabs {
		if alive() {
			t.Errorf("day %d's %s slab is still reachable after JobsForDay(%d)", day, slab, day+1)
		}
	}
	runtime.KeepAlive(next)
}

// TestPrefetchReservesEachTemplateOnce: a template listed several times
// gets room for one instance, a template whose memo holds the date none,
// and the second pass fills every room it reserved.
func TestPrefetchReservesEachTemplateOnce(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 4})
	if err != nil {
		t.Fatal(err)
	}
	const date = 6
	a, b, held := gen.Templates()[0], gen.Templates()[1], gen.Templates()[2]
	if _, err := held.Instantiate(date, 0); err != nil {
		t.Fatal(err)
	}
	room, missing := reserveMissing(date, []*Template{a, b, held, a, b, a})
	if !slices.Equal(missing, []*Template{a, b}) {
		t.Fatalf("reserved room for %d templates, want the 2 distinct ones whose memo lacks date %d", len(missing), date)
	}
	if len(room.facts) != 2 || len(room.jobs) != a.DailyInstances+b.DailyInstances {
		t.Fatalf("room for %d facts blocks and %d jobs, want 2 and %d", len(room.facts), len(room.jobs), a.DailyInstances+b.DailyInstances)
	}
	before := gen.CompileCacheStats()
	buildReserved(date, &room, missing)
	if len(room.facts) != 0 || len(room.jobs) != 0 || len(room.keys) != 0 || len(room.floats) != 0 {
		t.Errorf("room left after the second pass: %d facts blocks, %d jobs, %d keys, %d floats", len(room.facts), len(room.jobs), len(room.keys), len(room.floats))
	}
	if st := gen.CompileCacheStats(); st.Misses-before.Misses != 2 || st.Hits != before.Hits {
		t.Errorf("the batch counted %d misses and %d hits, want its 2 builds", st.Misses-before.Misses, st.Hits-before.Hits)
	}
}

// TestPrefetchConcurrentWithJobsForDay: while JobsForDay(d) runs, other
// goroutines Prefetch d and d+1, every template listed twice and the
// lists overlapping, and look up every job of d and d+1 through
// Instantiate, each in its own order. Every caller gets the same *Job for
// a (template, date, seq), it equals the from-scratch reference, and each
// (template, date) is built once. The dates step by two, so no lookup of
// an iteration pushes another of its dates out of a memo.
func TestPrefetchConcurrentWithJobsForDay(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := gen.Templates()
	reversed := slices.Clone(ts)
	slices.Reverse(reversed)
	type slot struct {
		tpl  *Template
		date int
		seq  int
	}
	const workers = 4
	for _, date := range []int{3, 5, 7} {
		var slots []slot
		for _, d := range []int{date, date + 1} {
			for _, tpl := range ts {
				for seq := 0; seq < tpl.DailyInstances; seq++ {
					slots = append(slots, slot{tpl, d, seq})
				}
			}
		}
		before := gen.CompileCacheStats().Misses
		got := make([][]*Job, workers)
		var day []*Job
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			jobs, err := gen.JobsForDay(date)
			if err != nil {
				t.Error(err)
			}
			day = jobs
		}()
		go func() {
			defer wg.Done()
			Prefetch(date, slices.Concat(ts[len(ts)/2:], ts, ts[:len(ts)/2]))
		}()
		go func() {
			defer wg.Done()
			Prefetch(date+1, slices.Concat(ts, reversed))
		}()
		for w := range got {
			got[w] = make([]*Job, len(slots))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range slots {
					k := (i + w*len(slots)/workers) % len(slots)
					if w%2 == 1 {
						k = len(slots) - 1 - k
					}
					j, err := slots[k].tpl.Instantiate(slots[k].date, slots[k].seq)
					if err != nil {
						t.Error(err)
						return
					}
					got[w][k] = j
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		if built := gen.CompileCacheStats().Misses - before; built != uint64(2*len(ts)) {
			t.Errorf("date %d: %d instances built for %d templates on two dates, want each built once", date, built, len(ts))
		}
		for k, s := range slots {
			j := got[0][k]
			for w := range got {
				if got[w][k] != j {
					t.Fatalf("%s: worker %d got %p, worker 0 %p", j.ID, w, got[w][k], j)
				}
			}
			if s.date == date && day[k] != j {
				t.Fatalf("%s: JobsForDay handed out %p, Instantiate %p", j.ID, day[k], j)
			}
			if d, err := refDiff(j); err != nil {
				t.Fatal(err)
			} else if d != "" {
				t.Errorf("%s: %s", j.ID, d)
			}
		}
	}
}

// TestPrefetchLeavesFailedBuildOut: an instance whose build fails in a
// Prefetch batch is left out of the memo and counts no miss, the others
// of the batch are built, and a lookup of it builds it alone and reports
// the error a template never prefetched reports.
func TestPrefetchLeavesFailedBuildOut(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 3})
	if err != nil {
		t.Fatal(err)
	}
	// broken binds a placeholder name Bind refuses, so no instance of it
	// builds; counts are its own.
	broken := func() *Template {
		src := gen.Templates()[1]
		return &Template{
			ID: src.ID, Tables: src.Tables, TrueSel: src.TrueSel, Literals: src.Literals,
			DailyInstances: src.DailyInstances, Tokens: src.Tokens,
			prepared: src.prepared, names: slices.Concat([]string{"DATE!"}, src.names[1:]),
			sites: src.sites, lookups: new(lookups),
		}
	}
	const date = 9
	bad, never := broken(), broken()
	first, last := gen.Templates()[0], gen.Templates()[2]
	before := gen.CompileCacheStats().Misses
	Prefetch(date, []*Template{first, bad, last})
	if !first.holds(date) || !last.holds(date) || bad.holds(date) {
		t.Fatalf("memo holds date %d: first %v, broken %v, last %v; want the two that build", date, first.holds(date), bad.holds(date), last.holds(date))
	}
	if built := gen.CompileCacheStats().Misses - before; built != 2 || bad.lookups.misses.Load() != 0 {
		t.Errorf("%d builds counted and %d for the failed one, want 2 and 0", built, bad.lookups.misses.Load())
	}
	_, err = bad.Instantiate(date, 0)
	_, want := never.Instantiate(date, 0)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("Instantiate after a failed prefetch: %v; never prefetched: %v", err, want)
	}
	if bad.lookups.misses.Load() != 1 || bad.holds(date) {
		t.Errorf("the lookup counted %d misses, memo holds it: %v; want one miss and no instance", bad.lookups.misses.Load(), bad.holds(date))
	}
}

// TestBatchRewritesConcurrentMatchHeap: goroutines compile every instance
// of one batch at once, each instance under the default configuration and
// single flips, each goroutine in its own order, so the instances' memos
// keep their rewrites in the batch's one store concurrently, and the
// rewrites cut the column lists and predicates they add from it (CI runs
// it under -race, repeatedly). Every compilation equals the one a cache
// without a store gives, node for node (compilationDiff), and some of
// them added column lists and predicates.
func TestBatchRewritesConcurrentMatchHeap(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 16})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.JobsForDay(3)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	configs := []rules.Config{cat.DefaultConfig()}
	for _, r := range cat.All() {
		if r.Category != rules.Required && len(configs) < 6 {
			configs = append(configs, cat.DefaultConfig().WithFlip(cat.FlipFor(r.ID)))
		}
	}
	type compile struct {
		job *Job
		cfg rules.Config
	}
	var compiles []compile
	for _, j := range jobs {
		if j.Seq == 0 {
			for _, cfg := range configs {
				compiles = append(compiles, compile{j, cfg})
			}
		}
	}
	want := make([]*optimizer.Result, len(compiles))
	wantErr := make([]error, len(compiles))
	for i, c := range compiles {
		opts := optimizer.Options{Catalog: cat, Stats: c.job.Stats, Tokens: c.job.Tokens, Cache: new(optimizer.CompileCache)}
		want[i], wantErr[i] = optimizer.Optimize(c.job.Graph, c.cfg, opts)
	}
	const workers = 4
	var wg sync.WaitGroup
	var addedCols, addedPreds atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range compiles {
				i := (k + w*len(compiles)/workers) % len(compiles)
				c := compiles[i]
				got, err := optimizer.Optimize(c.job.Graph, c.cfg, c.job.CompileOptions(cat))
				if d := compilationDiff(got, err, want[i], wantErr[i]); d != "" {
					t.Errorf("%s %v: %s", c.job.ID, c.cfg, d)
					return
				}
				if err == nil {
					cols, pred := rewriteAdds(c.job.Graph, got.Logical)
					if cols != nil {
						addedCols.Add(1)
					}
					if pred != nil {
						addedPreds.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if addedCols.Load() == 0 || addedPreds.Load() == 0 {
		t.Errorf("%d compilations added column lists and %d predicates; the store's new cuts went untested", addedCols.Load(), addedPreds.Load())
	}
}

// compilationDiff reports how a compilation differs from a reference: in
// its error, rewritten graph, signature, estimated cost or plan.
func compilationDiff(got *optimizer.Result, gotErr error, want *optimizer.Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case got.Logical.IDBound() != want.Logical.IDBound() || !reflect.DeepEqual(got.Logical.Roots, want.Logical.Roots):
		return "rewritten graph\n" + got.Logical.String() + "want\n" + want.Logical.String()
	case !got.Signature.Equal(want.Signature.Bitset):
		return "signature " + got.Signature.String() + ", want " + want.Signature.String()
	case got.EstCost != want.EstCost || !reflect.DeepEqual(got.Plan, want.Plan):
		return "physical plan differs"
	}
	return ""
}

// TestKeptRewriteAllocBudget gates what a rewrite a day's instance keeps
// allocates: the first compilation of each of a fresh date's 40
// instances, built in one batch, which rewrites and keeps the rewrite in
// the batch's store, less the same 40 compilations again, which find it
// in their memos and only lower, per kept rewrite. A rewrite kept as a
// heap Clone would add that clone's four allocations.
func TestKeptRewriteAllocBudget(t *testing.T) {
	budget.SkipRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gen, err := New(Config{Seed: 20211101, NumTemplates: 40})
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	compileDay := func(date int) func() uint64 {
		jobs, err := gen.JobsForDay(date)
		if err != nil {
			t.Fatal(err)
		}
		return func() uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, j := range jobs {
				if j.Seq != 0 {
					continue
				}
				if _, err := optimizer.Optimize(j.Graph, cat.DefaultConfig(), j.CompileOptions(cat)); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
	}
	compileDay(2)() // warms the pools every compilation draws on
	// No collection from here on: one would empty the pools it warmed.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	day := compileDay(3)
	budget.Gate(t, "workload.kept_rewrite", func() float64 {
		before := optimizer.CompileCacheTotals()
		first := day()
		again := day()
		after := optimizer.CompileCacheTotals()
		kept := after.Misses - before.Misses
		if kept != uint64(len(gen.Templates())) || after.Hits-before.Hits != kept {
			t.Fatalf("%d rewrites and %d reuses, want one rewrite and one reuse per instance", kept, after.Hits-before.Hits)
		}
		t.Logf("%d rewrites kept: %d allocations, %d through the warm memos", kept, first, again)
		return (float64(first) - float64(again)) / float64(kept)
	})
}

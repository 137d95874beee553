package workload

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"weak"
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

// TestJobsForDayMatchesLoneInstantiate: every job a JobsForDay batch hands
// out, for every ledger template on dates 0, 1, 7 and 30, equals the one
// a lone Instantiate builds on a fresh generator. The dates run backwards,
// so each JobsForDay finds its date in no memo but the look-ahead's: every
// third template's instance was built alone before the batch, which then
// hands that one out and builds the rest.
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
		ahead := map[*Job]bool{}
		for i, tpl := range gen.Templates() {
			if i%3 == 0 {
				j, err := tpl.Instantiate(date, 0)
				if err != nil {
					t.Fatal(err)
				}
				ahead[j] = true
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
		held := 0
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

// TestJobsForDayBetweenPasses: between JobsForDay's two passes, one
// template's missing instance is built by a direct Instantiate and
// another's look-ahead instance is pushed out of its memo by two later
// dates. The second pass hands out the first one's Instantiate-built job,
// leaving its room in the batch unused, builds the second one alone, and
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
	b, reserved := gen.reserveDay(date)
	if !reserved[0] || reserved[1] {
		t.Fatalf("reserved %v: want room for the first template and none for the look-ahead's", reserved)
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
	jobs, err := gen.buildDay(date, &b, reserved)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0] != direct {
		t.Errorf("the second pass handed out %p for %s, not the job Instantiate built between the passes", jobs[0], direct.ID)
	}
	if len(b.facts) != 1 || len(b.jobs) != filled.DailyInstances {
		t.Errorf("%d facts blocks and %d jobs of room left, want the filled instance's 1 and %d", len(b.facts), len(b.jobs), filled.DailyInstances)
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
// on gen — the job, facts, key, float and bound graph node slabs — whether
// it is still alive, through a weak pointer into it; it keeps no job of
// the day.
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
	j := jobs[0]
	return map[string]func() bool{
		"jobs":   alive(j),
		"facts":  alive(j.facts),
		"keys":   alive(&j.Truth.Paths[0]),
		"floats": alive(&j.Truth.Rows[0]),
		"nodes":  alive(j.Graph.Roots[0]),
	}
}

// alive reports, through a weak pointer to *p, whether the object holding
// *p is still reachable.
func alive[T any](p *T) func() bool {
	wp := weak.Make(p)
	return func() bool { return wp.Value() != nil }
}

// TestJobsForDayFreesPastBatch: a day's instances share their batch's
// slabs, so one instance a consumer keeps keeps the whole day. Once
// JobsForDay(d+1) has retired day d and nothing else holds a day-d job,
// one collection frees every slab of day d's batch: neither the memo nor
// a pooled scratch pins it.
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

package workload

import (
	"sync"
	"testing"

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
				want, err := scope.CompileScript(substitute(tpl.ScriptPattern, olds, values))
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

// TestGraphMemoHitsShareGraphs: a second instantiation of one (template,
// date) is a memo hit returning the identical graph, and another date is
// another key, bound afresh.
func TestGraphMemoHitsShareGraphs(t *testing.T) {
	gen, err := New(Config{Seed: 3, NumTemplates: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := gen.Templates()[0]
	base := gen.CompileCacheStats() // New binds a day of each template to check it
	delta := func() (hits, misses uint64, size int) {
		st := gen.CompileCacheStats()
		return st.Hits - base.Hits, st.Misses - base.Misses, st.Size - base.Size
	}
	j1, err := tpl.Instantiate(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := tpl.Instantiate(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j1.Graph != j2.Graph {
		t.Error("same (template, date) must return the identical memoized graph")
	}
	if h, m, s := delta(); h != 1 || m != 1 || s != 1 {
		t.Errorf("%d hits / %d misses / size +%d, want 1 hit / 1 miss / size +1", h, m, s)
	}
	j3, err := tpl.Instantiate(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Graph == j1.Graph {
		t.Error("a different date must bind a different graph")
	}
	if _, m, s := delta(); m != 2 || s != 2 {
		t.Errorf("%d misses / size +%d, want 2 misses / size +2", m, s)
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
			j, err := tpl.Instantiate(42, i)
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

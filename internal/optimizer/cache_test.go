package optimizer

import (
	"sync"
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// flipConfigs returns the default config plus every single-rule flip over
// the non-required catalog, a superset of what span computation and
// recommendation recompile.
func flipConfigs(cat *rules.Catalog, limit int) []rules.Config {
	def := cat.DefaultConfig()
	out := []rules.Config{def}
	for _, r := range cat.All() {
		if r.Category == rules.Required {
			continue
		}
		out = append(out, def.WithFlip(cat.FlipFor(r.ID)))
		if len(out) >= limit {
			break
		}
	}
	return out
}

// TestCachedOptimizeMatchesUncached is the cache's core guarantee: for
// any configuration, a cached compilation is bit-identical to a fresh
// one — same cost, signature, vertex count, and failure behaviour.
func TestCachedOptimizeMatchesUncached(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := new(CompileCache)
	stats := testStats()

	for _, cfg := range flipConfigs(cat, 60) {
		plain, errPlain := Optimize(g, cfg, Options{Catalog: cat, Stats: stats})
		// Compile twice through the cache so the second call is a hit.
		if _, err := Optimize(g, cfg, Options{Catalog: cat, Stats: stats, Cache: cache}); (err == nil) != (errPlain == nil) {
			t.Fatalf("cache miss path disagrees on error: %v vs %v", err, errPlain)
		}
		cached, errCached := Optimize(g, cfg, Options{Catalog: cat, Stats: stats, Cache: cache})
		if (errCached == nil) != (errPlain == nil) {
			t.Fatalf("cache hit path disagrees on error: %v vs %v", errCached, errPlain)
		}
		if errPlain != nil {
			continue
		}
		if cached.EstCost != plain.EstCost {
			t.Errorf("cfg %v: cached cost %v != uncached %v", cfg, cached.EstCost, plain.EstCost)
		}
		if !cached.Signature.Equal(plain.Signature.Bitset) {
			t.Errorf("cfg %v: cached signature differs", cfg)
		}
		if cached.Plan.EstVertices != plain.Plan.EstVertices {
			t.Errorf("cfg %v: cached vertices %d != %d", cfg, cached.Plan.EstVertices, plain.Plan.EstVertices)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}

// tuningConfigs returns n configurations that differ from the default in
// two tuning rules each. Only lowering asks about tuning rules, so every
// one of them certifies the default's rewrite; two flips rather than one
// keep Optimize's single-flip rejection from answering before the cache.
func tuningConfigs(cat *rules.Catalog, n int) []rules.Config {
	def := cat.DefaultConfig()
	var tuning []rules.Rule
	for _, r := range cat.All() {
		if r.Kind >= rules.KindTunePartitionCount {
			tuning = append(tuning, r)
		}
	}
	var out []rules.Config
	for i := 0; len(out) < n; i++ {
		a, b := tuning[i%len(tuning)], tuning[(i+1)%len(tuning)]
		out = append(out, def.WithFlip(cat.FlipFor(a.ID)).WithFlip(cat.FlipFor(b.ID)))
	}
	return out
}

// TestCompileCacheHitCounts checks the lookup accounting: a miss is a
// rewrite run, one per (graph, certificate); a hit is any lookup that
// reuses one, a repeat of its configuration or not.
func TestCompileCacheHitCounts(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := new(CompileCache)
	opts := Options{Catalog: cat, Stats: testStats(), Cache: cache}
	def := cat.DefaultConfig()

	for i := 0; i < 3; i++ {
		if _, err := Optimize(g, def, opts); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss / 2 hits", st)
	}
	// A configuration that differs only in rules the rewrite never asked
	// about is no new rewrite.
	Optimize(g, tuningConfigs(cat, 1)[0], opts) // lowering may fail; the lookup counts
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 3 {
		t.Errorf("stats = %+v, want 1 miss / 3 hits", st)
	}
	// A second graph of the same script is rewritten anew: certificates
	// are identity-keyed, not content-keyed.
	g2 := compileTestGraph(t, testScript)
	if _, err := Optimize(g2, def, opts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("distinct graph pointer must miss: %+v", st)
	}
}

// TestCompileCacheInlineCertificates: a memo's first certificates live in
// the cache itself; the one that outgrows them moves the whole list, in
// order, to a heap array with room for compileCacheSpill and clears the
// inline slots; and every certificate still serves its graph.
func TestCompileCacheInlineCertificates(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	cache := new(CompileCache)
	opts := Options{Catalog: cat, Stats: testStats(), Cache: cache}
	graphs := make([]*scope.Graph, compileCacheSpill+1)
	works := make([]*scope.Graph, len(graphs))
	for i := range graphs {
		graphs[i] = compileTestGraph(t, testScript)
		res, err := Optimize(graphs[i], def, opts)
		if err != nil {
			t.Fatal(err)
		}
		works[i] = res.Logical
		inline := &cache.certs[0] == &cache.inline[0]
		switch {
		case i < compileCacheInline && !inline:
			t.Fatalf("%d certificates left the cache's inline slots", i+1)
		case i >= compileCacheInline && inline:
			t.Fatalf("%d certificates still in %d inline slots", i+1, compileCacheInline)
		case i >= compileCacheInline && cache.inline != [compileCacheInline]certificate{}:
			t.Fatalf("with %d certificates on the heap, an inline slot still holds a rewrite", i+1)
		case i == compileCacheInline && cap(cache.certs) != compileCacheSpill:
			t.Fatalf("the list moved to an array of %d, want %d", cap(cache.certs), compileCacheSpill)
		}
		if len(cache.certs) != i+1 {
			t.Fatalf("%d certificates after %d rewrites", len(cache.certs), i+1)
		}
		for k, c := range cache.certs {
			if c.graph != graphs[k] || c.work != works[k] {
				t.Fatalf("after %d rewrites, certificate %d is not graph %d's rewrite", i+1, k, k)
			}
		}
	}
	misses := cache.Stats().Misses
	for i, g := range graphs {
		if res, err := Optimize(g, def, opts); err != nil || res.Logical != works[i] {
			t.Errorf("graph %d: a repeat does not reuse its rewrite (err %v)", i, err)
		}
	}
	if got := cache.Stats().Misses; got != misses {
		t.Errorf("repeats rewrote %d times", got-misses)
	}
}

// TestCompileCacheEviction checks what takes room in the cache and what
// capacity evicts.
func TestCompileCacheEviction(t *testing.T) {
	cat := rules.NewCatalog()
	stats := testStats()
	def := cat.DefaultConfig()

	// Reuse takes no room: compileCacheSize configurations certified by
	// the default's rewrite leave one certificate, and it still serves the
	// default.
	g := compileTestGraph(t, testScript)
	cache := new(CompileCache)
	opts := Options{Catalog: cat, Stats: stats, Cache: cache}
	Optimize(g, def, opts)
	for _, cfg := range tuningConfigs(cat, compileCacheSize) {
		Optimize(g, cfg, opts)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != compileCacheSize || len(cache.certs) != 1 {
		t.Errorf("stats = %+v with %d certificates, want 1 miss, %d hits and 1 certificate", st, len(cache.certs), compileCacheSize)
	}
	Optimize(g, def, opts)
	if st := cache.Stats(); st.Misses != 1 {
		t.Errorf("the default rewrote again after certified lookups: %+v", st)
	}

	// Capacity: one graph more than the cap, each rewritten once, evicts
	// the first graph's certificate, so it rewrites again.
	cache = new(CompileCache)
	opts.Cache = cache
	graphs := make([]*scope.Graph, compileCacheSize+1)
	for i := range graphs {
		graphs[i] = compileTestGraph(t, testScript)
		Optimize(graphs[i], def, opts)
	}
	if st := cache.Stats(); st.Misses != uint64(len(graphs)) || len(cache.certs) != compileCacheSize {
		t.Errorf("stats = %+v with %d certificates, want %d misses and %d certificates", st, len(cache.certs), len(graphs), compileCacheSize)
	}
	Optimize(graphs[0], def, opts)
	if got := cache.Stats().Misses; got != uint64(len(graphs))+1 {
		t.Errorf("an evicted graph should rewrite again: %d misses", got)
	}
}

// TestCompileCacheConcurrentCertifiedRewriteOnce: goroutines that compile
// one graph at once, each under its own configuration but all differing
// only in rules the rewrite never asks about, share one rewrite — the
// first lookup's, which the others wait for and find certified.
func TestCompileCacheConcurrentCertifiedRewriteOnce(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := new(CompileCache)
	stats := testStats()
	cfgs := tuningConfigs(cat, 16)
	logical := make([]*scope.Graph, len(cfgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			work, _, err := cache.logical(g, cfg, cat, stats)
			if err != nil {
				t.Error(err)
			}
			logical[i] = work
		}()
	}
	close(start)
	wg.Wait()
	if st := cache.Stats(); st.Misses != 1 || st.Hits != uint64(len(cfgs)-1) {
		t.Errorf("stats = %+v, want 1 rewrite and %d reuses", st, len(cfgs)-1)
	}
	for _, work := range logical[1:] {
		if work != logical[0] {
			t.Fatal("every configuration must get the one rewritten graph")
		}
	}
}

// TestCachedLogicalGraphSharedLoweringRace is the -race-verified
// guarantee the cache rests on: many goroutines lowering one shared
// rewritten logical DAG concurrently never write to logical nodes. Run
// with -race (CI does) to enforce it.
func TestCachedLogicalGraphSharedLoweringRace(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := new(CompileCache)
	stats := testStats()
	def := cat.DefaultConfig()
	opts := Options{Catalog: cat, Stats: stats, Cache: cache}

	// Prime the cache so every goroutine shares the same logical graph.
	ref, err := Optimize(g, def, opts)
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var wg sync.WaitGroup
	costs := make([]float64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Optimize(g, def, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Logical != ref.Logical {
				t.Error("cache hit must reuse the shared logical graph")
			}
			costs[i] = res.EstCost
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if costs[i] != ref.EstCost {
			t.Fatalf("concurrent lowering diverged: %v != %v", costs[i], ref.EstCost)
		}
	}
}

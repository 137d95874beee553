package optimizer

import (
	"sync"
	"testing"

	"qoadvisor/internal/rules"
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
	cache := NewCompileCache()
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
			t.Errorf("cfg %v: cached cost %v != uncached %v", cfg.DiffFrom(cat.DefaultConfig()), cached.EstCost, plain.EstCost)
		}
		if !cached.Signature.Equal(plain.Signature.Bitset) {
			t.Errorf("cfg %v: cached signature differs", cfg.DiffFrom(cat.DefaultConfig()))
		}
		if cached.Plan.EstVertices != plain.Plan.EstVertices {
			t.Errorf("cfg %v: cached vertices %d != %d", cfg.DiffFrom(cat.DefaultConfig()), cached.Plan.EstVertices, plain.Plan.EstVertices)
		}
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}

// TestCompileCacheHitCounts checks the lookup accounting: one miss per
// distinct (graph, config), hits afterwards.
func TestCompileCacheHitCounts(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := NewCompileCache()
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
	// A second graph of the same script is a distinct key: the cache is
	// identity-keyed, not content-keyed.
	g2 := compileTestGraph(t, testScript)
	if _, err := Optimize(g2, def, opts); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("distinct graph pointer must miss: %+v", st)
	}
}

// TestCompileCacheEviction checks capacity-driven invalidation.
func TestCompileCacheEviction(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := NewCompileCache()
	opts := Options{Catalog: cat, Stats: testStats(), Cache: cache}

	cfgs := flipConfigs(cat, 3*compileCacheSize)
	for _, cfg := range cfgs {
		Optimize(g, cfg, opts) // some flips legitimately fail to compile
	}
	if st := cache.Stats(); st.Misses <= compileCacheSize || st.Size > compileCacheSize {
		t.Errorf("%d misses left %d entries; want more than %d misses and at most that many entries", st.Misses, st.Size, compileCacheSize)
	}
	// The oldest config was evicted; compiling it again is a miss.
	before := cache.Stats().Misses
	Optimize(g, cfgs[0], opts)
	if got := cache.Stats().Misses; got != before+1 {
		t.Errorf("evicted config should recompile as a miss: %d -> %d", before, got)
	}
}

// TestCachedLogicalGraphSharedLoweringRace is the -race-verified
// guarantee the cache rests on: many goroutines lowering one shared
// rewritten logical DAG concurrently never write to logical nodes. Run
// with -race (CI does) to enforce it.
func TestCachedLogicalGraphSharedLoweringRace(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cache := NewCompileCache()
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

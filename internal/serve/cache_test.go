package serve

import (
	"sync"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
)

func mkHints(n, day int) []sis.Hint {
	out := make([]sis.Hint, n)
	for i := range out {
		out[i] = sis.Hint{
			TemplateHash: uint64(i)*0x9e3779b97f4a7c15 + 1,
			TemplateID:   "T",
			Flip:         rules.Flip{RuleID: i % rules.NumRules, Enable: i%2 == 0},
			Day:          day,
		}
	}
	return out
}

func TestHintCacheReplaceAndLookup(t *testing.T) {
	c := NewHintCache()
	if c.Size() != 0 || c.Generation() != 0 {
		t.Fatalf("fresh cache: size=%d gen=%d", c.Size(), c.Generation())
	}
	hints := mkHints(100, 1)
	if gen := c.Replace(hints); gen != 1 {
		t.Fatalf("Replace generation = %d, want 1", gen)
	}
	if c.Size() != 100 {
		t.Fatalf("Size = %d, want 100", c.Size())
	}
	for _, h := range hints {
		got, ok := c.Lookup(h.TemplateHash)
		if !ok {
			t.Fatalf("Lookup(%x) missed", h.TemplateHash)
		}
		if got != h {
			t.Fatalf("Lookup(%x) = %+v, want %+v", h.TemplateHash, got, h)
		}
	}
	if _, ok := c.Lookup(0xdeadbeef); ok {
		t.Error("Lookup of absent template hit")
	}

	// Rollover: a smaller day-2 table fully replaces day 1.
	if gen := c.Replace(mkHints(10, 2)); gen != 2 {
		t.Fatalf("second Replace generation = %d, want 2", gen)
	}
	if c.Size() != 10 {
		t.Fatalf("Size after rollover = %d, want 10", c.Size())
	}
	h, ok := c.Lookup(hints[0].TemplateHash)
	if !ok || h.Day != 2 {
		t.Fatalf("after rollover Lookup = (%+v, %v), want day-2 hint", h, ok)
	}
	if _, ok := c.Lookup(hints[50].TemplateHash); ok {
		t.Error("day-1-only hint survived rollover")
	}
}

func TestHintCacheDuplicateKeepsLast(t *testing.T) {
	c := NewHintCache()
	c.Replace([]sis.Hint{
		{TemplateHash: 7, Day: 1, Flip: rules.Flip{RuleID: 1}},
		{TemplateHash: 7, Day: 2, Flip: rules.Flip{RuleID: 2}},
	})
	h, ok := c.Lookup(7)
	if !ok || h.Day != 2 || h.Flip.RuleID != 2 {
		t.Fatalf("duplicate handling: got (%+v, %v), want last occurrence", h, ok)
	}
	if c.Size() != 1 {
		t.Fatalf("Size = %d, want 1", c.Size())
	}
}

// TestHintCacheConcurrentSwap hammers lookups while tables hot-swap; the
// -race detector verifies the publication, and the final generation that
// no swap was lost.
func TestHintCacheConcurrentSwap(t *testing.T) {
	c := NewHintCache()
	day1, day2 := mkHints(64, 1), mkHints(64, 2)
	c.Replace(day1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h, ok := c.Lookup(day1[i%64].TemplateHash)
				if !ok {
					t.Error("hint vanished during swap")
					return
				}
				if h.Day != 1 && h.Day != 2 {
					t.Errorf("torn hint: day %d", h.Day)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			c.Replace(day2)
		} else {
			c.Replace(day1)
		}
	}
	close(stop)
	wg.Wait()
	if c.Generation() != 51 {
		t.Errorf("Generation = %d, want 51", c.Generation())
	}
}

// TestRankHintAndGenerationAgree holds a rank response to one table: each
// installed table stamps every hint's Day with the generation the install
// mints, so a response whose HintDay differs from its Generation paired a
// hint from one table with the generation of another.
func TestRankHintAndGenerationAgree(t *testing.T) {
	const tableSize, rollovers = 4096, 200
	cat := rules.NewCatalog()
	srv := New(Config{Seed: 1})
	defer srv.Close()
	install := func(gen int) {
		got, err := srv.InstallHints(testHints(cat, tableSize, gen))
		if err != nil || got != uint64(gen) {
			t.Fatalf("install %d: generation %d, err %v", gen, got, err)
		}
	}
	install(1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				hash := api.TemplateHash(0x1000 + i%tableSize)
				resp, err := srv.Rank(api.RankRequest{TemplateHash: hash, Span: []int{41}})
				if err != nil || resp.Source != api.SourceHint {
					t.Errorf("rank %v: %+v, %v", hash, resp, err)
					return
				}
				if uint64(resp.HintDay) != resp.Generation {
					t.Errorf("rank %v: hint of table %d answered with generation %d", hash, resp.HintDay, resp.Generation)
					return
				}
			}
		}(g)
	}
	for gen := 2; gen <= rollovers+1; gen++ {
		install(gen)
	}
	close(stop)
	wg.Wait()
}

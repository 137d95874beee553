package serve

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// benchCachedHintRank is the shared body of the drift-overhead A/B
// pair: rank requests that always hit the hint cache, the path the
// safeguard's ±3%/0-alloc budget governs.
func benchCachedHintRank(b *testing.B, srv *Server, hints []sis.Hint) {
	b.Helper()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := api.RankRequest{TemplateHash: api.TemplateHash(hints[i%len(hints)].TemplateHash), Span: []int{40}}
			resp, err := srv.Rank(req)
			if err != nil {
				b.Error(err)
				return
			}
			if resp.Source != api.SourceHint {
				b.Errorf("cache miss for installed hint %x", req.TemplateHash)
				return
			}
			i++
		}
	})
}

// BenchmarkServeCachedHintDriftOff is the drift-overhead baseline arm:
// the identical cached-hint workload with the safeguard left at its
// default (no detector, empty enforcement table — one atomic nil-load
// per rank).
func BenchmarkServeCachedHintDriftOff(b *testing.B) {
	cat := rules.NewCatalog()
	srv := New(Config{Seed: 1})
	defer srv.Close()
	hints := testHints(cat, 10000, 1)
	if _, err := srv.InstallHints(hints); err != nil {
		b.Fatal(err)
	}
	benchCachedHintRank(b, srv, hints)
}

// BenchmarkServeCachedHintDriftOn is the treatment arm: drift
// detection enabled and a populated quarantine table (64 OTHER
// templates held), so every cached-hint rank pays the full enforcement
// check — atomic load plus a map probe that misses.
func BenchmarkServeCachedHintDriftOn(b *testing.B) {
	cat := rules.NewCatalog()
	dc := drift.DefaultConfig()
	srv := New(Config{Seed: 1, Drift: &dc})
	defer srv.Close()
	hints := testHints(cat, 10000, 1)
	if _, err := srv.InstallHints(hints); err != nil {
		b.Fatal(err)
	}
	quarantined := make(map[uint64]drift.State, 64)
	for i := 0; i < 64; i++ {
		quarantined[uint64(i)+1] = drift.StateQuarantined // below 0x1000: disjoint from the hint hashes
	}
	srv.guard.restore(quarantined)
	benchCachedHintRank(b, srv, hints)
}

// BenchmarkWALStream measures the replication ship path: a follower
// catching up over HTTP from a journal of rank/reward records, read
// with the journal's segment reader.
// One op = one full catch-up of the journal (reconnect + stream +
// CRC-verify every frame); records/s is the shipping rate a follower
// can ingest from a primary on this host.
func BenchmarkWALStream(b *testing.B) {
	j := nodetest.Journal(b, wal.Options{Mode: wal.ModeOff})
	srv := New(Config{Seed: 3, WAL: j})

	// A realistic record mix: rank records with resolved feature IDs,
	// reward batches every 64 ranks.
	svc := srv.Bandit()
	ctx := bandit.Context{IDs: []uint64{0x11, 0x22, 0x33, 0x44}}
	actions := []bandit.Action{{IDs: []uint64{1}}, {IDs: []uint64{2}}, {IDs: []uint64{3}}}
	var entries []walrec.RewardEntry
	const ranks = 20000
	for i := 0; i < ranks; i++ {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, walrec.RewardEntry{EventID: r.EventID, Value: 1.0})
		if len(entries) == 64 {
			if _, err := j.Append(walrec.EncodeRewardBatch(entries)); err != nil {
				b.Fatal(err)
			}
			entries = entries[:0]
		}
	}
	if err := j.Sync(); err != nil {
		b.Fatal(err)
	}
	records := j.LastLSN()

	ts, _ := nodetest.Serve(b, srv)
	hc := &http.Client{}
	var bytesShipped int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		resp, err := hc.Get(fmt.Sprintf("%s%s?from=0&wait=1", ts.URL, api.RouteV2WAL))
		if err != nil {
			b.Fatal(err)
		}
		sr := openStream(b, resp.Body, 0)
		var got uint64
		for {
			lsn, _, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got = lsn
		}
		bytesShipped += sr.Offset()
		resp.Body.Close()
		if got != records {
			b.Fatalf("stream ended at LSN %d, journal has %d", got, records)
		}
	}
	b.ReportMetric(float64(uint64(b.N)*records)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(bytesShipped)/b.Elapsed().Seconds()/(1<<20), "MiB/s")
}

// BenchmarkIncidentCapture measures one diagnostic-bundle capture end
// to end — goroutine + heap profiles, stats/traces/histograms JSON,
// meta — via the manual trigger (force bypasses the cooldown, so every
// iteration captures). This is the pause an incident costs the node.
func BenchmarkIncidentCapture(b *testing.B) {
	srv := New(Config{Seed: 1, IncidentDir: b.TempDir()})
	_, cl := nodetest.Serve(b, srv)
	ctx := context.Background()
	// A little traffic so the bundle has real content.
	if _, err := cl.RankBatch(ctx, []api.RankRequest{{TemplateHash: 7, Span: []int{3, 17, 40}}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := cl.TriggerIncident(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTableHints is the shape qobench's hint_hit installs: n distinct
// spread hashes, seven-byte IDs, catalog flips.
func benchTableHints(n int) []sis.Hint {
	hints := make([]sis.Hint, n)
	for i := range hints {
		hints[i] = sis.Hint{
			TemplateHash: uint64(i)*0x9e3779b97f4a7c15 + 1,
			TemplateID:   fmt.Sprintf("T%06d", i),
			Flip:         rules.Flip{RuleID: 40 + i%100, Enable: i%2 == 0},
			Day:          1,
		}
	}
	return hints
}

// BenchmarkHintInstall is one rollover's table build: HintCache.Replace
// of a validated table at a quarter of, and at, qobench hint_hit's size.
func BenchmarkHintInstall(b *testing.B) {
	for _, n := range []int{65536, 262144} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			hints := benchTableHints(n)
			c := NewHintCache()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Replace(hints)
			}
			if c.Size() != n {
				b.Fatalf("Size = %d, want %d", c.Size(), n)
			}
		})
	}
}

// BenchmarkHintLookup is HintCache.Lookup over 262,144 hints: keys drawn
// uniformly (every lookup cold — the table is several times the cache)
// and Zipf(1.1) as qobench draws templates (hot entries stay cached),
// present and absent. A miss key is a hit key plus one. The Zipf ranks
// follow install order, as in qobench's hint list, so a layout that keeps
// install order keeps the hot hints together; the byhash cases install
// the same hints in ascending hash order, the order sis.Store.Current
// hands over and a checkpoint re-journals, where no layout does.
func BenchmarkHintLookup(b *testing.B) {
	const n, nKeys = 262144, 1 << 18
	hints := benchTableHints(n)
	c, byHash := NewHintCache(), NewHintCache()
	c.Replace(hints)
	byHash.Replace(slices.SortedFunc(slices.Values(hints), func(x, y sis.Hint) int { return cmp.Compare(x.TemplateHash, y.TemplateHash) }))
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, n-1)
	for _, dist := range []struct {
		name string
		draw func() int
	}{
		{"uniform", func() int { return rng.Intn(n) }},
		{"zipf", func() int { return int(zipf.Uint64()) }},
	} {
		for _, miss := range []uint64{0, 1} {
			keys := make([]uint64, nKeys)
			for i := range keys {
				keys[i] = hints[dist.draw()].TemplateHash + miss
			}
			for _, order := range []struct {
				prefix string
				c      *HintCache
			}{{"", c}, {"byhash/", byHash}} {
				b.Run(order.prefix+dist.name+[]string{"/hit", "/miss"}[miss], func(b *testing.B) {
					b.ReportAllocs()
					misses := 0
					for i := 0; i < b.N; i++ {
						if _, ok := order.c.Lookup(keys[i%nKeys]); !ok {
							misses++
						}
					}
					if misses != int(miss)*b.N {
						b.Fatalf("%d of %d lookups missed, want %d", misses, b.N, int(miss)*b.N)
					}
				})
			}
		}
	}
}

// BenchmarkHintExport is the checkpoint's read-back of a 262,144-hint
// table: materialise every hint, sort by hash.
func BenchmarkHintExport(b *testing.B) {
	const n = 262144
	c := NewHintCache()
	c.Replace(benchTableHints(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hints, _ := c.Export(); len(hints) != n {
			b.Fatalf("Export returned %d hints, want %d", len(hints), n)
		}
	}
}

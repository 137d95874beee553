package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
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
	srv := New(Config{Catalog: cat, Seed: 1})
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
	srv := New(Config{Catalog: cat, Seed: 1, Drift: &dc})
	defer srv.Close()
	hints := testHints(cat, 10000, 1)
	if _, err := srv.InstallHints(hints); err != nil {
		b.Fatal(err)
	}
	quarantined := make(map[uint64]drift.State, 64)
	for i := 0; i < 64; i++ {
		quarantined[uint64(i)+1] = drift.StateQuarantined // below 0x1000: disjoint from the hint hashes
	}
	srv.RestoreQuarantines(quarantined)
	benchCachedHintRank(b, srv, hints)
}

// BenchmarkWALStream measures the replication ship path: a follower
// catching up over HTTP from a journal of framed rank/reward records.
// One op = one full catch-up of the journal (reconnect + stream +
// CRC-verify every frame); records/s is the shipping rate a follower
// can ingest from a primary on this host.
func BenchmarkWALStream(b *testing.B) {
	dir := b.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeOff})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	srv := New(Config{Seed: 3, WAL: j})
	defer srv.Close()

	// A realistic record mix: rank records with resolved feature IDs,
	// reward batches every 64 ranks.
	svc := srv.Bandit()
	ctx := bandit.Context{IDs: []uint64{0x11, 0x22, 0x33, 0x44}}
	actions := []bandit.Action{{IDs: []uint64{1}}, {IDs: []uint64{2}}, {IDs: []uint64{3}}}
	var entries []bandit.RewardEntry
	const ranks = 20000
	for i := 0; i < ranks; i++ {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, bandit.RewardEntry{EventID: r.EventID, Value: 1.0})
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

	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := &http.Client{}
	var bytesShipped int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		resp, err := hc.Get(fmt.Sprintf("%s%s?from=0&wait=1", ts.URL, api.RouteV2WAL))
		if err != nil {
			b.Fatal(err)
		}
		var got uint64
		for {
			lsn, payload, err := api.ReadWALFrame(resp.Body)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got = lsn
			bytesShipped += int64(len(payload) + api.WALFrameHeaderSize)
		}
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
	srv := New(Config{Seed: 1, Incidents: &IncidentConfig{Dir: b.TempDir()}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)
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

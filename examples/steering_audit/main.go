// Steering audit: the journal as an explainability database — every
// question answered here is answered from WAL records alone, with no
// extra bookkeeping in the serving path.
//
// A WAL-backed primary serves a short day of steering: bandit ranks
// with attributed rewards for one template, hint rollovers that first
// steer and later drop another. The example then interrogates the
// journal through the /v2/audit endpoints:
//
//	phase 1  a day of steering      ranks, rewards, two hint rollovers
//	phase 2  why this decision?     /v2/audit/records — the event's own
//	                                records; /v2/audit/decision — rank,
//	                                rewards, first train mark, lineage
//	phase 3  who steered template?  /v2/audit/template — flip history
//	phase 4  time travel            /v2/audit/asof — reconstructed model
//	                                byte-identical to a live checkpoint
//
// Phase 4 is the determinism contract in action: as-of is crash
// recovery with an upper bound (serve.RecoverAsOf) — it seeds from the
// snapshot when that is not from the target's future, replays the
// journal up to the LSN, and must reproduce the live checkpoint's bytes
// exactly — sha256 compared below. Nothing about training is
// configured: the node trains every bandit.DefaultTrainEvery rewards,
// and the 300 rewards of phase 1 cross one such boundary that the
// reconstruction must place where the live node did.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"log"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

const (
	tmplBandit = uint64(0xfeedface) // un-hinted: ranks flow through the bandit
	tmplHinted = uint64(0xa11ce)    // steered by hint rollovers
)

func main() {
	ctx := context.Background()
	// STEERING_AUDIT_DIR keeps the journal around after the run so the
	// offline CLI (qoserved audit) can be pointed at it — CI uses this
	// to smoke the canned queries against a known journal.
	dir := os.Getenv("STEERING_AUDIT_DIR")
	if dir == "" {
		tmp, err := os.MkdirTemp("", "steering-audit-*")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	snap := filepath.Join(dir, serve.SnapshotFile)

	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync})
	if err != nil {
		log.Fatal(err)
	}
	cat := rules.NewCatalog()
	srv := serve.New(serve.Config{Seed: 42, SnapshotPath: snap, WAL: j})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)

	// --- Phase 1: a day of steering ---
	fmt.Println("== phase 1: a day of steering ==")
	if _, err := srv.InstallHints([]sis.Hint{
		{TemplateHash: tmplHinted, TemplateID: "T-H", Flip: cat.FlipFor(40), Day: 7},
	}); err != nil {
		log.Fatal(err)
	}
	var events []string
	for i := 0; i < 300; i++ {
		resp, err := cl.Rank(ctx, api.RankRequest{
			TemplateHash: api.TemplateHash(tmplBandit), Span: []int{5, 60},
		})
		if err != nil {
			log.Fatal(err)
		}
		events = append(events, resp.EventID)
		v := 0.5 + 0.4*float64(i%2) // alternating observed speedups
		if _, err := cl.RewardBatch(ctx, []api.RewardEvent{
			{EventID: resp.EventID, Reward: &v},
		}); err != nil {
			log.Fatal(err)
		}
	}
	// A second rollover drops the hint — the lineage phase 3 reads.
	if _, err := srv.InstallHints(nil); err != nil {
		log.Fatal(err)
	}
	srv.Ingestor().Drain() // journal the training boundary
	fmt.Printf("served %d bandit ranks with rewards, 2 hint rollovers journaled\n", len(events))

	// --- Phase 2: why did this event get its decision? ---
	fmt.Println("\n== phase 2: decision trace ==")
	target := events[len(events)/2]
	tr, err := cl.AuditDecision(ctx, target)
	if err != nil {
		log.Fatal(err)
	}
	if !tr.Found {
		log.Fatal("BUG: journal lost the rank record")
	}
	fmt.Printf("event %s: ranked at lsn=%d prob=%.4f (%d context, %d action features)\n",
		tr.EventID, tr.RankLSN, tr.Prob, tr.CtxIDs, tr.ActIDs)
	recs, err := cl.AuditRecords(ctx, url.Values{"event": {target}})
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range recs.Records {
		fmt.Printf("  journal lsn=%d %s\n", rec.LSN, rec.Summary)
	}
	for _, rw := range tr.Rewards {
		fmt.Printf("  reward lsn=%d value=%.2f\n", rw.LSN, rw.Value)
	}
	fmt.Printf("  trained by lsn=%d at the latest (the first train mark after its reward); %d lineage rewards shaped the weights it was scored with\n",
		tr.TrainedAtLSN, len(tr.Lineage))

	// --- Phase 3: which flips steered the hinted template? ---
	fmt.Println("\n== phase 3: template steering lineage ==")
	th, err := cl.AuditTemplate(ctx, api.TemplateHash(tmplHinted))
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range th.Events {
		switch ev.Kind {
		case "hint":
			fmt.Printf("  lsn=%d hint %s (day %d, generation %d)\n", ev.LSN, ev.Flip, ev.Day, ev.Gen)
		case "hint_removed":
			fmt.Printf("  lsn=%d hint removed (generation %d)\n", ev.LSN, ev.Gen)
		default:
			fmt.Printf("  lsn=%d %s\n", ev.LSN, ev.Kind)
		}
	}
	fmt.Printf("  %d events extracted from %d rollover records\n", len(th.Events), th.Rollovers)

	// --- Phase 4: time travel, checked byte-for-byte ---
	fmt.Println("\n== phase 4: as-of reconstruction vs live checkpoint ==")
	var live bytes.Buffer
	lsn, err := srv.BootstrapSnapshot(&live)
	if err != nil {
		log.Fatal(err)
	}
	want := sha256.Sum256(live.Bytes())
	res, err := cl.AuditAsOf(ctx, lsn)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live checkpoint at lsn=%d: %d bytes, sha256=%s\n",
		lsn, live.Len(), hex.EncodeToString(want[:8]))
	fmt.Printf("as-of reconstruction:     %d bytes, sha256=%s (replayed %d records, %d training runs)\n",
		res.SnapshotBytes, res.SnapshotSHA256[:16], res.Replay.Records, res.Replay.TrainRuns)
	if res.SnapshotSHA256 != hex.EncodeToString(want[:]) {
		log.Fatal("BUG: as-of reconstruction diverged from the live checkpoint")
	}
	fmt.Println("byte-identical: the journal fully determines the model")

	// The server's audit counters account for the queries above: each one
	// is a filtered pass over the journal's own reader.
	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if a := st.Audit; a != nil {
		fmt.Printf("\naudit totals: %d queries, %d/%d segments scanned/skipped, %d records scanned\n",
			a.Queries, a.SegmentsScanned, a.SegmentsSkipped, a.RecordsScanned)
	}
}

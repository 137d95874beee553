// Steering pipeline: the full production loop over a multi-day recurring
// workload. Each simulated day, production runs every job under the
// currently installed hints, then the offline QO-Advisor pipeline
// processes the day's telemetry and uploads new validated hints to the
// Stats & Insight Service — the Figure 1 loop of the paper, end to end.
//
// The final section closes the deployment loop over the wire: the
// trained bandit and validated hint table are served by the online
// steering service (internal/serve), the hint file is rolled over via
// POST /v2/hints, and the next day's jobs are steered through the
// versioned batch protocol with the typed client
// (qoadvisor/internal/api/client) — cache hits for hinted templates,
// bandit decisions for the rest, and batched reward telemetry back.
// The served leg runs durably: rank decisions and reward batches are
// journaled to a write-ahead log, a checkpoint snapshots the model
// with its covering WAL offset, and the example finishes by proving
// the crash-recovery contract — a model rebuilt from snapshot +
// journal suffix is byte-identical to the live one.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/workload"
)

func main() {
	const days = 8
	gen, err := workload.New(workload.Config{Seed: 7, NumTemplates: 30, MaxDailyInstances: 2})
	if err != nil {
		log.Fatal(err)
	}
	cat := rules.NewCatalog()
	cluster := exec.DefaultCluster(7)
	store := sis.NewStore(cat)
	adv := core.NewAdvisor(cat, store, core.Config{
		Seed:      7,
		Flighting: flighting.Config{Catalog: cat, Cluster: cluster, Seed: 12},
	})
	prod := core.NewProduction(cat, store, cluster, 19)

	fmt.Printf("%-4s %-8s %-10s %-9s %-8s %-6s\n", "day", "jobs", "steerable", "flighted", "valid", "hints")
	for day := 1; day <= days; day++ {
		adv.CB.Uniform = day <= 2 // uniform logging first, learned policy after

		jobs, err := gen.JobsForDay(day)
		if err != nil {
			log.Fatal(err)
		}
		runs, view, err := prod.RunDay(day, jobs)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := adv.RunDay(day, jobs, view)
		if err != nil {
			log.Fatal(err)
		}
		hinted := 0
		for _, r := range runs {
			if r.Hinted {
				hinted++
			}
		}
		fmt.Printf("%-4d %-8d %-10d %-9d %-8d %-6d   (%d jobs ran hinted)\n",
			day, rep.JobsInView, rep.JobsWithSpan, rep.FlightsRequested,
			rep.Validated, rep.HintsUploaded, hinted)
	}

	// Show the final hint file the way SIS stores it.
	hist := store.History()
	if len(hist) == 0 || len(hist[len(hist)-1].Hints) == 0 {
		fmt.Println("\nNo hints survived validation in this short run — try more days.")
		return
	}
	final := hist[len(hist)-1]
	fmt.Println("\nActive hints (template -> single rule flip):")
	for _, h := range final.Hints {
		r := cat.Rule(h.Flip.RuleID)
		fmt.Printf("  %s (%016x): %s  [%s, %s] installed day %d\n",
			h.TemplateID, h.TemplateHash, h.Flip, r.Name, r.Category, h.Day)
	}

	// --- Serve the result online and steer the next day over the wire ---

	walDir, err := os.MkdirTemp("", "qoadvisor-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	journal, err := wal.Open(wal.Options{Dir: walDir, Mode: wal.ModeAsync})
	if err != nil {
		log.Fatal(err)
	}
	defer journal.Close()
	srv := serve.New(serve.Config{Catalog: cat, Bandit: adv.CB.Service, Seed: 7, WAL: journal})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	// Pipeline rollover over HTTP: serialize the SIS file and push it
	// through the typed client, exactly as `qoserved push-hints` would.
	var hintFile bytes.Buffer
	if err := sis.Serialize(&hintFile, final); err != nil {
		log.Fatal(err)
	}
	install, err := cl.InstallHints(ctx, &hintFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nServing: rolled %d hints (day %d) into generation %d at %s\n",
		install.Installed, install.Day, install.Generation, ts.URL)

	// Compile day N+1 against the server: run production to get the
	// day's telemetry view, featurize it (spans, input-stream stats),
	// and steer every job in one /v2/rank batch instead of a round trip
	// per job.
	jobs, err := gen.JobsForDay(days + 1)
	if err != nil {
		log.Fatal(err)
	}
	_, view, err := prod.RunDay(days+1, jobs)
	if err != nil {
		log.Fatal(err)
	}
	feats, err := adv.FeatureGen.Run(jobs, view)
	if err != nil {
		log.Fatal(err)
	}
	batch := make([]api.RankRequest, 0, len(feats))
	for _, f := range feats {
		batch = append(batch, api.RankRequest{
			TemplateHash: api.TemplateHash(f.Job.Graph.TemplateHash()),
			TemplateID:   f.Job.Template.ID,
			Span:         f.Span.Bits(),
			RowCount:     f.RowCount,
			BytesRead:    f.BytesRead,
		})
	}
	resp, err := cl.RankBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}

	var hintHits, banditRanks, skipped int
	reward := 1.0
	var events []api.RewardEvent
	for _, res := range resp.Results {
		switch {
		case res.Error != nil:
			// Not steerable (the protocol rejects per job without
			// voiding the batch).
			skipped++
		case res.Source == api.SourceHint:
			hintHits++
		default:
			banditRanks++
			// Pretend the flip ran well: batch the telemetry back.
			events = append(events, api.RewardEvent{EventID: res.EventID, Reward: &reward})
		}
	}
	fmt.Printf("Day %d over the wire: %d jobs ranked in one batch -> %d hint hits, %d bandit decisions, %d unsteerable\n",
		days+1, len(batch), hintHits, banditRanks, skipped)

	if len(events) > 0 {
		rb, err := cl.RewardBatch(ctx, events)
		if err != nil {
			log.Fatal(err)
		}
		srv.Ingestor().Drain()
		fmt.Printf("Telemetry: %d rewards queued in one batch (%d rejected)\n", rb.Queued, len(rb.Rejected))
	}

	health, err := cl.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Server: %s generation %d, %d hints; %d ranks (%d from cache), %d rewards applied\n",
		health.Status, health.Generation, health.Hints,
		stats.RankRequests, stats.HintHits, stats.Ingest.Applied)
	if stats.WAL != nil {
		fmt.Printf("Journal: mode=%s, %d records (%d bytes) across %d segments\n",
			stats.WAL.Mode, stats.WAL.LastLSN, stats.WAL.AppendedBytes, stats.WAL.Segments)
	}

	// --- Crash recovery: the durability contract, proven ---
	//
	// Checkpoint the served model (quiesce, train-flush, snapshot with
	// the covering WAL offset), then rebuild a model the way a crashed
	// process would on restart — snapshot + journal suffix — and check
	// it is byte-identical to the live learner's persisted form.
	snapPath := filepath.Join(walDir, "model.snap")
	ckpt, err := srv.Checkpoint(snapPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Checkpoint: %d bytes at WAL offset %d in %v (%d segments compacted)\n",
		ckpt.Bytes, ckpt.LSN, ckpt.Duration.Round(time.Microsecond), ckpt.SegmentsRemoved)

	var live bytes.Buffer
	if err := srv.SnapshotTo(&live); err != nil {
		log.Fatal(err)
	}
	rec, err := serve.Recover(wal.DirSource{Dir: walDir}, snapPath, 0, 0, 7)
	if err != nil {
		log.Fatal(err)
	}
	var rebuilt bytes.Buffer
	if err := rec.Service.Save(&rebuilt); err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(live.Bytes(), rebuilt.Bytes()) {
		fmt.Printf("Recovery: snapshot + %d-record journal suffix rebuilt the model byte-identically (%d bytes)\n",
			rec.Journal.Records, rebuilt.Len())
	} else {
		log.Fatalf("recovery mismatch: live %d bytes, rebuilt %d bytes", live.Len(), rebuilt.Len())
	}
}

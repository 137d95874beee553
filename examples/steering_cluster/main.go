// Steering cluster: QO-Advisor's serving layer scaled out to a
// primary/follower fleet via WAL-shipped replication.
//
// The offline pipeline trains a bandit and produces a validated hint
// table for a recurring workload; a WAL-backed primary then serves the
// steering surface while two followers bootstrap from its
// checkpoint-consistent snapshot (GET /v2/wal/snapshot) and tail its
// journal (GET /v2/wal) — rank decisions, reward batches, train marks,
// and hint rollovers all replicate in decision order. A cluster client
// fans reads across all three nodes and chases the not_primary
// redirect for writes.
//
// The example finishes by proving the replication contract:
//
//   - convergence: after catch-up, each follower's /v2/rank responses
//     are byte-identical to the primary's for the same request stream
//     (same jobs, same pinned request ID), and the replicated model is
//     byte-identical up to the watermark position;
//   - read scaling: the same rank workload is pushed through one node
//     and then through the three-node rotation, printing aggregate
//     throughput per topology.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/workload"
)

func main() {
	const days = 8
	ctx := context.Background()

	// --- Offline pipeline: train a bandit, produce hints ---
	gen, err := workload.New(workload.Config{Seed: 21, NumTemplates: 32, MaxDailyInstances: 2})
	if err != nil {
		log.Fatal(err)
	}
	cat := rules.NewCatalog()
	clusterExec := exec.DefaultCluster(21)
	store := sis.NewStore(cat)
	adv := core.NewAdvisor(cat, store, core.Config{
		Seed:      21,
		Flighting: flighting.Config{Catalog: cat, Cluster: clusterExec, Seed: 26},
	})
	prod := core.NewProduction(cat, store, clusterExec, 33)
	for day := 1; day <= days; day++ {
		adv.CB.Uniform = day <= 2
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			log.Fatal(err)
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := adv.RunDay(day, jobs, view); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("pipeline: %d days trained, %d validated hints\n", days, store.Size())

	// --- Primary: WAL-backed serving node ---
	walDir, err := os.MkdirTemp("", "qoadvisor-cluster-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)
	journal, err := wal.Open(wal.Options{Dir: walDir, Mode: wal.ModeAsync})
	if err != nil {
		log.Fatal(err)
	}
	defer journal.Close()
	primary := serve.New(serve.Config{Catalog: cat, Bandit: adv.CB.Service, Seed: 21, WAL: journal})
	defer primary.Close()
	pts := httptest.NewServer(primary)
	defer pts.Close()
	if _, err := primary.InstallHints(adv.ActiveHints()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary:  %s serving %d hints (generation %d), journal at LSN %d\n",
		pts.URL, primary.Cache().Size(), primary.Cache().Generation(), journal.LastLSN())

	// --- Followers: bootstrap + live tail ---
	newFollower := func(name string) (*replicate.Follower, *httptest.Server) {
		f, err := replicate.Start(replicate.Config{
			Primary:          pts.URL,
			Catalog:          cat,
			Seed:             99,
			PollWait:         250 * time.Millisecond,
			ReconnectBackoff: 50 * time.Millisecond,
		})
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		ts := httptest.NewServer(f)
		fmt.Printf("%s: %s bootstrapped at LSN %d\n", name, ts.URL, f.Applied())
		return f, ts
	}
	f1, fts1 := newFollower("follower1")
	defer f1.Close()
	defer fts1.Close()
	f2, fts2 := newFollower("follower2")
	defer f2.Close()
	defer fts2.Close()

	// --- Cluster client: reads fan out, writes chase the leader ---
	// Deliberately list a follower first: the first write must discover
	// the real leader from the not_primary redirect.
	cc, err := client.NewCluster([]string{fts1.URL, pts.URL, fts2.URL})
	if err != nil {
		log.Fatal(err)
	}

	// Day N+1 under live serving: steer through the cluster, send the
	// rewards back — they land on the primary (redirect) and replicate
	// out to both followers through the journal.
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
	// Ranks must come from the primary to produce reward-able events
	// (followers rank read-only); ask it directly, then push rewards
	// through the cluster to demonstrate the redirect.
	presp, err := client.New(pts.URL).RankBatch(ctx, batch)
	if err != nil {
		log.Fatal(err)
	}
	var events []api.RewardEvent
	hintHits := 0
	for _, res := range presp.Results {
		switch {
		case res.Error != nil:
		case res.EventID != "":
			v := 0.8
			events = append(events, api.RewardEvent{EventID: res.EventID, Reward: &v})
		default:
			hintHits++
		}
	}
	if len(events) > 0 {
		rresp, err := cc.RewardBatch(ctx, events) // first write: follower -> redirect -> leader
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cluster:  day %d steered (%d hint hits, %d bandit events); %d rewards queued via leader redirect (leader learned: %v)\n",
			days+1, hintHits, len(events), rresp.Queued, cc.Leader() == pts.URL)
	}

	// A fresh rollover while the followers tail live.
	adv.CB.Uniform = false
	var hintFile bytes.Buffer
	if err := sis.Serialize(&hintFile, sis.File{Day: days + 1, Hints: adv.ActiveHints()}); err != nil {
		log.Fatal(err)
	}
	install, err := cc.InstallHints(ctx, &hintFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollover: generation %d (%d hints) journaled and shipping\n", install.Generation, install.Installed)

	// --- Convergence proof ---
	primary.Ingestor().Drain()
	if err := journal.Sync(); err != nil {
		log.Fatal(err)
	}
	for i, f := range []*replicate.Follower{f1, f2} {
		if err := f.WaitCaughtUp(ctx, 10*time.Second); err != nil {
			log.Fatalf("follower%d: %v", i+1, err)
		}
	}

	hints, gen2 := primary.Cache().Export()
	convJobs := make([]api.RankRequest, 0, len(hints)*32)
	for _, h := range hints {
		for s := 0; s < 32; s++ {
			convJobs = append(convJobs, api.RankRequest{
				TemplateHash: api.TemplateHash(h.TemplateHash),
				Span:         []int{1 + s, 40 + s*2, 150 + s},
				RowCount:     float64(100 * (s + 1)),
			})
		}
	}
	body, err := json.Marshal(api.BatchRankRequest{Jobs: convJobs})
	if err != nil {
		log.Fatal(err)
	}
	ref := postPinned(pts.URL, body)
	for i, fts := range []*httptest.Server{fts1, fts2} {
		got := postPinned(fts.URL, body)
		if !bytes.Equal(ref, got) {
			log.Fatalf("follower%d /v2/rank responses diverged from primary\nprimary:  %s\nfollower: %s", i+1, ref, got)
		}
	}
	fmt.Printf("converge: %d-job rank stream byte-identical on all 3 nodes (generation %d)\n", len(convJobs), gen2)
	for i, f := range []*replicate.Follower{f1, f2} {
		if !bytes.Equal(modelBytes(primary), modelBytes(f.Server())) {
			log.Fatalf("follower%d model diverged from primary", i+1)
		}
		st := f.Stats()
		fmt.Printf("follower%d: applied LSN %d, lag %d, %d records applied, %d reconnects\n",
			i+1, st.AppliedLSN, st.LagRecords, st.RecordsApplied, st.Reconnects)
	}

	// --- Read scaling: one node vs the three-node rotation ---
	loadJobs := make([]api.RankRequest, 256)
	for i := range loadJobs {
		loadJobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(0xbeef0000 + uint64(i%48)),
			Span:         []int{1 + i%40, 50 + i%60, 140 + i%40},
			RowCount:     float64(100 * (i + 1)),
		}
	}
	single, _ := client.NewCluster([]string{fts1.URL})
	const rounds = 40
	t1 := clusterThroughput(ctx, single, loadJobs, rounds)
	t3 := clusterThroughput(ctx, cc, loadJobs, rounds)
	fmt.Printf("scaling:  %d-job batches x%d — 1 node: %.0f ranks/s, 3-node rotation: %.0f ranks/s (%.2fx aggregate)\n",
		len(loadJobs), rounds, t1, t3, t3/t1)
	fmt.Println("          (all nodes share this process; on one CPU the rotation measures distribution overhead —")
	fmt.Println("           real read scaling comes from followers on their own machines, which is what `qoserved follow` deploys)")
	fmt.Println("\nWAL-shipped replication: bootstrap + tail + redirect + convergence all proven over the wire.")
}

// postPinned POSTs a /v2/rank batch with a pinned request ID and
// returns the raw response bytes (request IDs are echoed, so equal
// inputs must produce equal bytes on converged nodes).
func postPinned(base string, body []byte) []byte {
	req, err := http.NewRequest(http.MethodPost, base+api.RouteV2Rank, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, "converge-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("rank on %s: status %d, err %v", base, resp.StatusCode, err)
	}
	return raw
}

// modelBytes renders a server's model with the watermark position
// neutralized (primary and follower sit at different covered LSNs by
// design; everything else must match byte for byte).
func modelBytes(s *serve.Server) []byte {
	var buf bytes.Buffer
	if err := s.Bandit().Save(&buf); err != nil {
		log.Fatal(err)
	}
	b := buf.Bytes()
	nl := bytes.IndexByte(b, '\n')
	head := b[:nl]
	if i := bytes.LastIndex(head, []byte(" wal=")); i >= 0 {
		head = head[:i]
	}
	return append(append([]byte{}, head...), b[nl:]...)
}

// clusterThroughput pushes the same batch through the given client
// repeatedly and reports ranks per second.
func clusterThroughput(ctx context.Context, cc *client.Cluster, jobs []api.RankRequest, rounds int) float64 {
	start := time.Now()
	total := 0
	for i := 0; i < rounds; i++ {
		resp, err := cc.RankBatch(ctx, jobs)
		if err != nil {
			log.Fatal(err)
		}
		total += len(resp.Results)
	}
	return float64(total) / time.Since(start).Seconds()
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// startNodes spins n standalone serving nodes and drives jobsPer rank
// jobs into each, so every node holds distinct route histograms.
func startNodes(t *testing.T, n, jobsPer int) ([]*httptest.Server, []string) {
	t.Helper()
	ctx := context.Background()
	servers := make([]*httptest.Server, n)
	endpoints := make([]string, n)
	for i := range servers {
		ts, cl := nodetest.Serve(t, serve.New(serve.Config{Seed: int64(i + 1)}))
		servers[i] = ts
		endpoints[i] = ts.URL

		jobs := make([]api.RankRequest, jobsPer)
		for j := range jobs {
			jobs[j] = api.RankRequest{TemplateHash: api.TemplateHash(j + 1), Span: []int{j % 8, 8 + j%8}}
		}
		if _, err := cl.RankBatch(ctx, jobs); err != nil {
			t.Fatalf("seeding node %d: %v", i, err)
		}
	}
	return servers, endpoints
}

// TestScrapeMergesCounts pins the central fleet invariant: the merged
// histogram's count equals the sum of the per-node counts, for routes
// and stages alike.
func TestScrapeMergesCounts(t *testing.T) {
	_, endpoints := startNodes(t, 3, 5)
	snap := Scrape(context.Background(), endpoints, client.WithTimeout(5*time.Second))
	if got := snap.Reachable(); got != 3 {
		t.Fatalf("expected 3 reachable nodes, got %d: %+v", got, snap.Nodes)
	}

	var nodeSum uint64
	var wireSum int64
	for _, n := range snap.Nodes {
		rs := n.Stats.Routes[api.RouteV2Rank]
		if rs.Hist == nil {
			t.Fatalf("node %s ships no raw histogram for %s", n.Endpoint, api.RouteV2Rank)
		}
		nodeSum += rs.Hist.Snapshot().Count
		wireSum += rs.Count
	}
	m := snap.Routes[api.RouteV2Rank]
	if m.Hist.Count != nodeSum {
		t.Fatalf("fleet count %d != Σ node counts %d", m.Hist.Count, nodeSum)
	}
	if m.Count != wireSum || m.Count != 3 {
		t.Fatalf("fleet route counter %d, want wire sum %d = 3 batch requests", m.Count, wireSum)
	}

	var stageSum uint64
	for _, n := range snap.Nodes {
		stageSum += n.Stats.Stages["rank_bandit"].Hist.Snapshot().Count
	}
	if sm := snap.Stages["rank_bandit"]; sm.Hist.Count != stageSum || stageSum == 0 {
		t.Fatalf("stage merge: fleet %d != Σ nodes %d (must be nonzero)", sm.Hist.Count, stageSum)
	}
}

// TestAggregateCommutes pins merge commutativity: scraping the same
// nodes in any order yields identical fleet distributions.
func TestAggregateCommutes(t *testing.T) {
	_, endpoints := startNodes(t, 3, 4)
	snap := Scrape(context.Background(), endpoints)

	fwd := Aggregate(snap.Nodes)
	rev := make([]Node, len(snap.Nodes))
	for i, n := range snap.Nodes {
		rev[len(rev)-1-i] = n
	}
	bwd := Aggregate(rev)
	for route, m := range fwd.Routes {
		if bwd.Routes[route].Hist != m.Hist {
			t.Fatalf("route %s merge not commutative", route)
		}
		if bwd.Routes[route].Count != m.Count || bwd.Routes[route].Errors != m.Errors {
			t.Fatalf("route %s counters not commutative", route)
		}
	}
	for stage, m := range fwd.Stages {
		if bwd.Stages[stage].Hist != m.Hist {
			t.Fatalf("stage %s merge not commutative", stage)
		}
	}
}

// TestMergedExpositionInfEqualsCount pins the +Inf == count invariant
// on a fleet-merged histogram rendered through the Prometheus builder:
// merging across nodes must not break exposition validity.
func TestMergedExpositionInfEqualsCount(t *testing.T) {
	_, endpoints := startNodes(t, 2, 6)
	snap := Scrape(context.Background(), endpoints)
	m := snap.Routes[api.RouteV2Rank]
	if m.Hist.Count == 0 {
		t.Fatal("merged histogram unexpectedly empty")
	}

	e := obs.NewExposition()
	e.Histogram("fleet_route_duration_seconds", "merged", obs.L("route", api.RouteV2Rank), m.Hist)
	var buf bytes.Buffer
	e.WriteTo(&buf)
	var infVal, countVal string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `le="+Inf"`) {
			infVal = line[strings.LastIndex(line, " ")+1:]
		}
		if strings.HasPrefix(line, "fleet_route_duration_seconds_count") {
			countVal = line[strings.LastIndex(line, " ")+1:]
		}
	}
	want := fmt.Sprintf("%d", m.Hist.Count)
	if infVal != want || countVal != want {
		t.Fatalf("+Inf bucket %q and _count %q must both equal merged count %q", infVal, countVal, want)
	}
}

// TestScrapeUnreachableNode keeps a dead endpoint in the node rows
// without poisoning the merge.
func TestScrapeUnreachableNode(t *testing.T) {
	_, endpoints := startNodes(t, 1, 3)
	endpoints = append(endpoints, "http://127.0.0.1:1") // nothing listens
	snap := Scrape(context.Background(), endpoints, client.WithTimeout(2*time.Second))
	if snap.Reachable() != 1 {
		t.Fatalf("expected 1 reachable node, got %d", snap.Reachable())
	}
	if snap.Nodes[1].Err == nil {
		t.Fatal("dead endpoint must report its scrape error")
	}
	if snap.Routes[api.RouteV2Rank].Hist.Count == 0 {
		t.Fatal("live node's series must still merge")
	}

	var buf bytes.Buffer
	snap.Render(&buf)
	out := buf.String()
	for _, want := range []string{endpoints[0], endpoints[1], "ROLE", "standalone", api.RouteV2Rank, "rank_bandit"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// degradedNode serves a standalone node whose /v2/healthz answers 503
// "degraded", the way a follower with a stale replication tail does.
func degradedNode(t *testing.T) string {
	t.Helper()
	srv := serve.New(serve.Config{Seed: 1})
	t.Cleanup(srv.Close)
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	mux.HandleFunc(api.RouteV2Healthz, func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(api.HealthResponse{Status: api.HealthDegraded, Generation: 3})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestScrapeDegradedNode: a node that answers its health check with a
// 503 "degraded" body is reachable — its stats still merge — but it is
// not healthy, which is what `qoserved cluster` exits on.
func TestScrapeDegradedNode(t *testing.T) {
	_, endpoints := startNodes(t, 1, 3)
	endpoints = append(endpoints, degradedNode(t))
	snap := Scrape(context.Background(), endpoints, client.WithTimeout(5*time.Second))
	if snap.Reachable() != 2 || snap.Healthy() != 1 {
		t.Fatalf("reachable %d, healthy %d; want 2 and 1", snap.Reachable(), snap.Healthy())
	}
	if got := snap.Nodes[0].Health.Status; got != api.HealthOK {
		t.Fatalf("healthy node's status = %q", got)
	}
	if got := snap.Nodes[1].Health; got.Status != api.HealthDegraded || got.Generation != 3 {
		t.Fatalf("degraded node's health = %+v, want its 503 body", got)
	}
	if _, ok := snap.Nodes[1].Stats.Routes[api.RouteV2Healthz]; !ok {
		t.Fatal("degraded node's stats were not scraped")
	}
	var buf bytes.Buffer
	snap.Render(&buf)
	if !strings.Contains(buf.String(), "health:     degraded (generation 3") {
		t.Fatalf("rendered report does not show the degraded node's health:\n%s", buf.String())
	}
}

// TestOneNodeFleetIsTheNode: a fleet of one merges one node's buckets,
// so every fleet percentile is the one the node itself reports in
// /v2/stats — Quantile runs over the same buckets on both sides.
func TestOneNodeFleetIsTheNode(t *testing.T) {
	_, endpoints := startNodes(t, 1, 9)
	snap := Scrape(context.Background(), endpoints, client.WithTimeout(5*time.Second))
	st := snap.Nodes[0].Stats
	if len(st.Routes) == 0 || len(st.Stages) == 0 {
		t.Fatalf("node reports %d routes and %d stages; want both", len(st.Routes), len(st.Stages))
	}
	check := func(kind, name string, h obs.HistSnapshot, p50, p90, p99, p999 int64) {
		t.Helper()
		got := [4]int64{h.Quantile(0.50).Microseconds(), h.Quantile(0.90).Microseconds(),
			h.Quantile(0.99).Microseconds(), h.Quantile(0.999).Microseconds()}
		if want := [4]int64{p50, p90, p99, p999}; got != want {
			t.Errorf("%s %s: fleet p50/p90/p99/p999 %v, node reports %v", kind, name, got, want)
		}
	}
	for route, rs := range st.Routes {
		check("route", route, snap.Routes[route].Hist, rs.P50Micros, rs.P90Micros, rs.P99Micros, rs.P999Micros)
	}
	for stage, ls := range st.Stages {
		check("stage", stage, snap.Stages[stage].Hist, ls.P50Micros, ls.P90Micros, ls.P99Micros, ls.P999Micros)
	}
}

// TestRenderShowsNodeDetail: a WAL-backed primary with drift detection
// and incident capture on reports every block, and the fleet view
// prints a line for each of them.
func TestRenderShowsNodeDetail(t *testing.T) {
	dc := drift.DefaultConfig()
	srv, _, err := serve.Open(serve.Config{Seed: 1, WAL: nodetest.Journal(t, wal.Options{Mode: wal.ModeSync}), Drift: &dc, IncidentDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Rank(api.RankRequest{TemplateHash: 7, Span: []int{5, 21}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Ingestor().EnqueueBatch([]walrec.RewardEntry{{EventID: resp.EventID, Value: 0.5}}); err != nil {
		t.Fatal(err)
	}
	ts, _ := nodetest.Serve(t, srv)

	snap := Scrape(context.Background(), []string{ts.URL}, client.WithTimeout(5*time.Second))
	if snap.Healthy() != 1 {
		t.Fatalf("primary not healthy: %+v", snap.Nodes[0])
	}
	var buf bytes.Buffer
	snap.Render(&buf)
	for _, label := range []string{"health:", "version:", "serving:", "ingest:", "wal:", "checkpoint:", "safeguard:", "incidents:", "flightrec:"} {
		if !strings.Contains(buf.String(), "  "+label+" ") {
			t.Errorf("rendered node detail lacks the %q line:\n%s", label, buf.String())
		}
	}
}

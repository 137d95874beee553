package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/budget"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// TestAPIConformanceClientEndToEnd drives every client method against a
// real steering server: install hints, health, batch rank, reward
// (single and batch), stats, snapshot.
func TestAPIConformanceClientEndToEnd(t *testing.T) {
	cat := rules.NewCatalog()
	srv := serve.New(serve.Config{Seed: 17})
	_, c := nodetest.Serve(t, srv)
	ctx := context.Background()

	// Rollover: upload a hint file through the typed client.
	var buf bytes.Buffer
	if err := sis.Serialize(&buf, sis.File{Day: 4, Hints: []sis.Hint{
		{TemplateHash: 0x99, TemplateID: "T9", Flip: cat.FlipFor(47), Day: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	install, err := c.InstallHints(ctx, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if install.Installed != 1 || install.Generation != 1 {
		t.Fatalf("install = %+v", install)
	}

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != api.HealthOK || health.Generation != 1 || health.Hints != 1 {
		t.Fatalf("health = %+v", health)
	}

	// Batch rank: one hint hit, one bandit decision.
	batch, err := c.RankBatch(ctx, []api.RankRequest{
		{TemplateHash: 0x99, Span: []int{47}},
		{TemplateHash: 0x100, Span: []int{12, 47}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Generation != 1 {
		t.Fatalf("batch = %+v", batch)
	}
	if batch.Results[0].Source != api.SourceHint {
		t.Errorf("result 0 = %+v, want hint", batch.Results[0])
	}
	ev := batch.Results[1]
	if ev.Source != api.SourceBandit || ev.EventID == "" {
		t.Fatalf("result 1 = %+v, want bandit event", ev)
	}

	// Single reward through the client, then a batch with one unknown.
	if err := c.Reward(ctx, ev.EventID, 1.2); err != nil {
		t.Fatal(err)
	}
	val := 0.5
	rb, err := c.RewardBatch(ctx, []api.RewardEvent{
		{EventID: ev.EventID, Reward: &val},
		{EventID: "ev-unknown", Reward: &val},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Queued != 1 || len(rb.Rejected) != 1 || rb.Rejected[0].Error.Code != api.CodeUnknownEvent {
		t.Fatalf("reward batch = %+v", rb)
	}
	srv.Ingestor().Drain()

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HintHits != 1 || stats.BanditRanks != 1 || stats.Ingest.Applied != 2 {
		t.Errorf("stats = %+v, want 1 hint hit, 1 bandit rank, 2 applied", stats)
	}
	if stats.Routes[api.RouteV2Rank].Count != 1 {
		t.Errorf("route metrics = %+v, want one v2 rank call", stats.Routes[api.RouteV2Rank])
	}

	// Snapshot streams a loadable model.
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := bandit.Load(snap, 1); err != nil {
		t.Fatalf("snapshot not loadable: %v", err)
	}
}

func TestClientTypedError(t *testing.T) {
	_, c := nodetest.Serve(t, serve.New(serve.Config{Seed: 1}))

	_, err := c.Rank(context.Background(), api.RankRequest{TemplateHash: 1, Span: []int{}})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error = %T %v, want *api.Error", err, err)
	}
	if apiErr.Code != api.CodeInvalidRequest || apiErr.HTTPStatus != http.StatusBadRequest {
		t.Errorf("error = %+v, want invalid_request / 400", apiErr)
	}
}

func TestClientRetriesOn503(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorResponse{Error: *api.Errorf(api.CodeQueueFull, "full")})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.BatchRewardResponse{Queued: 1})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3, time.Millisecond))
	if err := c.Reward(context.Background(), "ev1", 1.0); err != nil {
		t.Fatalf("reward after retries: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (2 x 503 + success)", calls.Load())
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: *api.Errorf(api.CodeQueueFull, "full")})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(2, time.Millisecond))
	err := c.Reward(context.Background(), "ev1", 1.0)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("error = %v, want queue_full after exhausted retries", err)
	}
	if calls.Load() != 3 {
		t.Errorf("server saw %d calls, want 3 (initial + 2 retries)", calls.Load())
	}
}

// A 503 that is NOT queue backpressure — a degraded follower's
// /v2/healthz answers 503 with a HealthResponse body, no error
// envelope — must fail immediately (re-probing a permanently stale
// node burns the backoff budget a cluster rotation could have spent
// failing over to a healthy one) and must still hand the decoded
// health body to the caller: the degraded node's generation, hints,
// and uptime are exactly what an operator probes it for.
func TestClientDoesNotRetryDegraded503(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(api.HealthResponse{Status: api.HealthDegraded, Generation: 7, Hints: 3})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetries(3, time.Millisecond))
	resp, err := c.Health(context.Background())
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDegraded || apiErr.HTTPStatus != http.StatusServiceUnavailable {
		t.Fatalf("error = %v, want degraded *api.Error with HTTP 503", err)
	}
	if resp.Status != api.HealthDegraded || resp.Generation != 7 || resp.Hints != 3 {
		t.Errorf("degraded body not decoded: %+v", resp)
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d calls, want 1 (degraded healthz is not retryable)", calls.Load())
	}
}

// TestClientKeepsConnectionAlive: json.Decoder stops reading at the end
// of the response value, before EOF, and a body closed with bytes
// unread makes the transport discard the connection — so every large
// batch used to dial afresh. 200 sequential batch-128 calls must share
// one TCP connection.
func TestClientKeepsConnectionAlive(t *testing.T) {
	srv := serve.New(serve.Config{Seed: 1})
	defer srv.Close()
	var dials atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dials.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	jobs := make([]api.RankRequest, 128)
	for i := range jobs {
		jobs[i] = api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{i % 64, 64 + i%64}}
	}
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
	for i := 0; i < 200; i++ {
		if _, err := c.RankBatch(context.Background(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("200 batch-128 calls opened %d connections, want 1", n)
	}
}

// TestClientWALStatsPassthrough pins the durable-journal fields of the
// stats payload through the typed client: a WAL-backed server reports
// its sync mode, journal positions, and checkpoint counters in
// /v2/stats, and a server without a WAL omits the block entirely.
func TestClientWALStatsPassthrough(t *testing.T) {
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync})
	srv := serve.New(serve.Config{Seed: 4, WAL: j})
	_, cl := nodetest.Serve(t, srv)
	ctx := context.Background()

	// Rank + reward so the journal has records, then checkpoint.
	r, err := cl.Rank(ctx, api.RankRequest{TemplateHash: 1, Span: []int{3, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Reward(ctx, r.EventID, 1.0); err != nil {
		t.Fatal(err)
	}
	srv.Ingestor().Drain()
	if _, err := srv.Checkpoint(j.Dir() + "/model.snap"); err != nil {
		t.Fatal(err)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WAL == nil {
		t.Fatal("WAL stats missing from /v2/stats on a journaled server")
	}
	if stats.WAL.Mode != "sync" {
		t.Errorf("WAL mode = %q, want sync", stats.WAL.Mode)
	}
	if stats.WAL.LastLSN == 0 || stats.WAL.Appends == 0 {
		t.Errorf("journal looks empty after traffic: %+v", stats.WAL)
	}
	if stats.WAL.SyncedLSN != stats.WAL.LastLSN {
		t.Errorf("sync mode left unsynced tail: synced %d, last %d", stats.WAL.SyncedLSN, stats.WAL.LastLSN)
	}
	if stats.WAL.Checkpoints != 1 || stats.WAL.LastCheckpointLSN == 0 {
		t.Errorf("checkpoint counters = %+v", stats.WAL)
	}
	if stats.Ingest.JournalErrors != 0 {
		t.Errorf("JournalErrors = %d on a healthy disk", stats.Ingest.JournalErrors)
	}

	// No WAL: the block is omitted (omitempty pointer).
	_, cl2 := nodetest.Serve(t, serve.New(serve.Config{Seed: 5}))
	stats2, err := cl2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.WAL != nil {
		t.Errorf("WAL stats present on an in-memory server: %+v", stats2.WAL)
	}
}

// batchFixture is a 16-job rank batch, its 16-event reward batch and
// an httptest.Server that answers both with canned bytes, having read
// the request body to EOF and closed it as the real handlers do.
func batchFixture(t *testing.T) (url string, jobs []api.RankRequest, events []api.RewardEvent) {
	t.Helper()
	jobs = make([]api.RankRequest, 16)
	events = make([]api.RewardEvent, 16)
	results := make([]api.RankResult, 16)
	reward := 0.75
	for i := range jobs {
		th := api.TemplateHash(0x1000 + i)
		jobs[i] = api.RankRequest{TemplateHash: th, Span: []int{40, 41 + i, 90}, RowCount: 1e6, BytesRead: 2.5e9}
		events[i] = api.RewardEvent{Reward: &reward, TemplateHash: &th}
		results[i] = api.RankResult{RankResponse: api.RankResponse{Source: api.SourceHint, Flip: "-R040", HintDay: 3, Generation: 1}}
	}
	ranked, _ := api.BatchRankResponse{RequestID: "r", Generation: 1, Results: results}.AppendJSON(nil)
	acked, _ := api.BatchRewardResponse{RequestID: "r", Generation: 1, Observed: 16}.AppendJSON(nil)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.URL.Path == api.RouteV2Rank {
			w.Write(ranked)
		} else {
			w.WriteHeader(http.StatusAccepted)
			w.Write(acked)
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL, jobs, events
}

// batcher is what a Client and a Cluster both send batches through.
type batcher interface {
	RankBatch(ctx context.Context, jobs []api.RankRequest) (api.BatchRankResponse, error)
	RewardBatch(ctx context.Context, events []api.RewardEvent) (api.BatchRewardResponse, error)
}

// batchCalls returns a 16-job RankBatch and a 16-event RewardBatch
// through b, each failing t on a wrong answer.
func batchCalls(t *testing.T, b batcher, jobs []api.RankRequest, events []api.RewardEvent) (rank, reward func()) {
	ctx := context.Background()
	rank = func() {
		if resp, err := b.RankBatch(ctx, jobs); err != nil || len(resp.Results) != 16 || resp.Results[15].Flip != "-R040" {
			t.Fatalf("RankBatch = %+v, %v", resp, err)
		}
	}
	reward = func() {
		if resp, err := b.RewardBatch(ctx, events); err != nil || resp.Observed != 16 {
			t.Fatalf("RewardBatch = %+v, %v", resp, err)
		}
	}
	return rank, reward
}

// TestBatchCallAllocBudget is the client-side sibling of serve's
// TestRankPathAllocBudget: a 16-job RankBatch and its 16-event
// RewardBatch against an httptest.Server that answers canned bytes.
func TestBatchCallAllocBudget(t *testing.T) {
	url, jobs, events := batchFixture(t)
	rank, rewardAll := batchCalls(t, client.New(url), jobs, events)
	rank() // open the connection, warm the pools
	rewardAll()
	budget.Allocs(t, "client.rank_batch", 200, rank)
	budget.Allocs(t, "client.reward_batch", 200, rewardAll)
}

// TestClusterOpAllocBudget holds a one-node Cluster's rank plus reward
// op to the single-node Client's two calls: walking the read rotation
// and reaching the leader add no allocation on the way to success.
// Each side is the least of three readings, so a stray allocation of
// the loopback server does not decide it.
func TestClusterOpAllocBudget(t *testing.T) {
	url, jobs, events := batchFixture(t)
	cluster, err := client.NewCluster([]string{url})
	if err != nil {
		t.Fatal(err)
	}
	perOp := func(b batcher) float64 {
		rank, reward := batchCalls(t, b, jobs, events)
		op := func() { rank(); reward() }
		op() // open the connection, warm the pools
		least := testing.AllocsPerRun(100, op)
		for range 2 {
			least = min(least, testing.AllocsPerRun(100, op))
		}
		return least
	}
	budget.Gate(t, "client.cluster_over_client", func() float64 {
		single := perOp(client.New(url))
		return perOp(cluster) - single
	})
}

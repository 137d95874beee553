package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"qoadvisor/internal/api"
)

// fakeNode is a scripted cluster node: it answers reads and either
// accepts writes (leader) or redirects them to leaderURL.
type fakeNode struct {
	name      string
	leaderURL string // "" = this node IS the leader
	reads     atomic.Int64
	writes    atomic.Int64
	failReads atomic.Bool
	degraded  atomic.Bool
	ts        *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{name: name}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case api.RouteV2Rank:
			n.reads.Add(1)
			if n.failReads.Load() {
				http.Error(w, "boom", http.StatusBadGateway)
				return
			}
			var req api.BatchRankRequest
			json.NewDecoder(r.Body).Decode(&req)
			results := make([]api.RankResult, len(req.Jobs))
			for i := range results {
				results[i].RankResponse = api.RankResponse{Source: api.SourceHint, Flip: "+R001", Generation: 1}
			}
			json.NewEncoder(w).Encode(api.BatchRankResponse{RequestID: n.name, Results: results})
		case api.RouteV2Reward:
			if n.leaderURL != "" {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusMisdirectedRequest)
				json.NewEncoder(w).Encode(api.ErrorResponse{Error: *api.NotPrimary(n.leaderURL)})
				return
			}
			n.writes.Add(1)
			var req api.BatchRewardRequest
			json.NewDecoder(r.Body).Decode(&req)
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(api.BatchRewardResponse{RequestID: n.name, Queued: len(req.Events)})
		case api.RouteV2Healthz:
			n.reads.Add(1)
			if n.degraded.Load() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(api.HealthResponse{Status: api.HealthDegraded})
				return
			}
			json.NewEncoder(w).Encode(api.HealthResponse{Status: api.HealthOK})
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(api.ErrorResponse{Error: *api.Errorf(api.CodeNotFound, "no route")})
		}
	}))
	t.Cleanup(n.ts.Close)
	return n
}

func rankJobs(n int) []api.RankRequest {
	jobs := make([]api.RankRequest, n)
	for i := range jobs {
		jobs[i] = api.RankRequest{TemplateHash: api.TemplateHash(i), Span: []int{1}}
	}
	return jobs
}

// TestClusterReadsFanOut: batches rotate across every node, and a
// failing node is skipped rather than failing the read.
func TestClusterReadsFanOut(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	cc, err := NewCluster([]string{a.ts.URL, b.ts.URL, c.ts.URL}, WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := cc.RankBatch(context.Background(), rankJobs(2)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []*fakeNode{a, b, c} {
		if got := n.reads.Load(); got != 3 {
			t.Errorf("node %s served %d reads, want 3 (round-robin)", n.name, got)
		}
	}

	// Node b starts failing: reads silently fail over to a and c.
	b.failReads.Store(true)
	for i := 0; i < 6; i++ {
		if _, err := cc.RankBatch(context.Background(), rankJobs(1)); err != nil {
			t.Fatalf("read with one dead node: %v", err)
		}
	}
	if a.reads.Load()+c.reads.Load() < 9 {
		t.Errorf("survivors did not absorb the failed node's reads (a=%d c=%d)", a.reads.Load(), c.reads.Load())
	}

	// All nodes failing: the error reports the cluster-wide failure.
	a.failReads.Store(true)
	c.failReads.Store(true)
	if _, err := cc.RankBatch(context.Background(), rankJobs(1)); err == nil ||
		!strings.Contains(err.Error(), "every cluster node failed") {
		t.Fatalf("total outage error = %v", err)
	}
}

// TestClusterReadRotationPastIntRange: the round-robin counter is a
// uint64 that runs for the life of the process. Past 2^63 (2^31 on a
// 32-bit build) it no longer fits an int, and the rotation must still
// pick a node in range and keep alternating.
func TestClusterReadRotationPastIntRange(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	cc, err := NewCluster([]string{a.ts.URL, b.ts.URL}, WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	cc.rr.Store(1 << 63)
	for i := 0; i < 2; i++ {
		if _, err := cc.RankBatch(context.Background(), rankJobs(1)); err != nil {
			t.Fatal(err)
		}
	}
	if a.reads.Load() != 1 || b.reads.Load() != 1 {
		t.Errorf("two reads past 2^63 served a=%d b=%d, want one each", a.reads.Load(), b.reads.Load())
	}
}

// TestClusterHealthFailsOverDegradedNode: a stale follower's degraded
// 503 is node-specific, not a request rejection — the rotation must
// move past it to a healthy node instead of reporting the whole
// cluster unhealthy ~1/N of the time.
func TestClusterHealthFailsOverDegradedNode(t *testing.T) {
	a, b, c := newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")
	b.degraded.Store(true)
	cc, err := NewCluster([]string{a.ts.URL, b.ts.URL, c.ts.URL}, WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Enough probes that the rotation is guaranteed to land on b.
	for i := 0; i < 6; i++ {
		h, herr := cc.Health(context.Background())
		if herr != nil {
			t.Fatalf("probe %d: %v (degraded node must fail over, not fail the probe)", i, herr)
		}
		if h.Status != api.HealthOK {
			t.Fatalf("probe %d: status %q from a rotation with healthy nodes", i, h.Status)
		}
	}
	if b.reads.Load() == 0 {
		t.Fatal("rotation never hit the degraded node; test is vacuous")
	}

	// Every node degraded: the probe reports the cluster-wide failure.
	a.degraded.Store(true)
	c.degraded.Store(true)
	if _, err := cc.Health(context.Background()); err == nil {
		t.Fatal("all-degraded cluster probe succeeded")
	}
}

// TestClusterWritesChaseLeader: a write aimed at a follower follows
// the not_primary redirect, the leader is learned, and later writes go
// straight there.
func TestClusterWritesChaseLeader(t *testing.T) {
	leader := newFakeNode(t, "leader")
	f1, f2 := newFakeNode(t, "f1"), newFakeNode(t, "f2")
	f1.leaderURL = leader.ts.URL
	f2.leaderURL = leader.ts.URL

	// The leader is not even in the initial endpoint list: it must be
	// discovered from the redirect envelope.
	cc, err := NewCluster([]string{f1.ts.URL, f2.ts.URL}, WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v := 0.5
	resp, err := cc.RewardBatch(context.Background(), []api.RewardEvent{{EventID: "e1", Reward: &v}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Queued != 1 || leader.writes.Load() != 1 {
		t.Fatalf("write did not land on the leader: %+v (leader writes %d)", resp, leader.writes.Load())
	}
	if cc.Leader() != leader.ts.URL {
		t.Fatalf("leader not learned: %q", cc.Leader())
	}
	// Second write: straight to the leader, no extra redirect hop.
	if _, err := cc.RewardBatch(context.Background(), []api.RewardEvent{{EventID: "e2", Reward: &v}}); err != nil {
		t.Fatal(err)
	}
	if leader.writes.Load() != 2 {
		t.Fatalf("leader writes = %d, want 2", leader.writes.Load())
	}
}

// TestClusterRedirectLoopBounded: two nodes pointing at each other
// must not loop a write forever.
func TestClusterRedirectLoopBounded(t *testing.T) {
	a, b := newFakeNode(t, "a"), newFakeNode(t, "b")
	a.leaderURL = b.ts.URL
	b.leaderURL = a.ts.URL
	cc, err := NewCluster([]string{a.ts.URL}, WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v := 1.0
	_, err = cc.RewardBatch(context.Background(), []api.RewardEvent{{EventID: "e", Reward: &v}})
	if err == nil || !strings.Contains(err.Error(), "leader chase exceeded") {
		t.Fatalf("redirect loop error = %v", err)
	}
}

// TestClusterWriteFailsOverDeadLeaderGuess: the initial leader guess is
// unreachable; the write must fall back to another known endpoint,
// learn the real leader from its redirect, and land.
func TestClusterWriteFailsOverDeadLeaderGuess(t *testing.T) {
	leader := newFakeNode(t, "leader")
	follower := newFakeNode(t, "follower")
	follower.leaderURL = leader.ts.URL
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // port now refuses connections

	cc, err := NewCluster([]string{dead.URL, follower.ts.URL}, WithRetries(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	v := 1.0
	resp, err := cc.RewardBatch(context.Background(), []api.RewardEvent{{EventID: "e", Reward: &v}})
	if err != nil {
		t.Fatalf("write with dead leader guess: %v", err)
	}
	if resp.Queued != 1 || leader.writes.Load() != 1 || cc.Leader() != leader.ts.URL {
		t.Fatalf("write did not reach the leader via failover: %+v (leader writes %d, learned %q)",
			resp, leader.writes.Load(), cc.Leader())
	}

	// Every endpoint dead: the error says so.
	leader.ts.Close()
	follower.ts.Close()
	if _, err := cc.RewardBatch(context.Background(), []api.RewardEvent{{EventID: "e2", Reward: &v}}); err == nil ||
		!strings.Contains(err.Error(), "every known endpoint") {
		t.Fatalf("total write outage error = %v", err)
	}
}

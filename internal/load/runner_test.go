package load

import (
	"context"
	"sync"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/serve"
)

// TestRunPhaseOpenLoop drives a short constant phase against a live
// in-process server and checks the harness accounting end to end:
// every scheduled op completes, every job gets a decision, rewards
// close the loop, goodput is nonzero, and the latency histogram holds
// one sample per op.
func TestRunPhaseOpenLoop(t *testing.T) {
	_, cl := nodetest.Serve(t, serve.New(serve.Config{Seed: 42}))
	r := NewRunner(Config{Target: cl, Batch: 4, Seed: 1})
	res := r.RunPhase(context.Background(), Phase{
		Name: "smoke", Shape: ShapeConstant, Duration: 500 * time.Millisecond, Low: 100,
	})
	if res.Offered < 45 || res.Offered > 55 {
		t.Fatalf("offered %d ops, want ~50", res.Offered)
	}
	if res.Completed != res.Offered {
		t.Fatalf("completed %d of %d ops", res.Completed, res.Offered)
	}
	if want := int64(res.Offered * 4); res.RankedJobs != want {
		t.Fatalf("ranked %d jobs, want %d (errors: %v)", res.RankedJobs, want, res.Errors)
	}
	if res.RewardedEvents == 0 {
		t.Fatal("rewards must close the loop on a bandit-only server")
	}
	if res.Goodput() <= 0 {
		t.Fatal("goodput must be nonzero")
	}
	if res.Hist.Count != uint64(res.Completed) {
		t.Fatalf("histogram holds %d samples, want %d", res.Hist.Count, res.Completed)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", res.Errors)
	}
}

// TestRunPhaseTypedErrors pins the typed-error breakdown: an
// unreachable target yields transport errors, not a panic or a silent
// zero.
func TestRunPhaseTypedErrors(t *testing.T) {
	r := NewRunner(Config{
		Target: client.New("http://127.0.0.1:1"), // nothing listens
		Batch:  2, Seed: 1,
	})
	res := r.RunPhase(context.Background(), Phase{
		Name: "dead", Shape: ShapeConstant, Duration: 200 * time.Millisecond, Low: 50,
	})
	if res.RankedJobs != 0 {
		t.Fatalf("ranked %d jobs against a dead target", res.RankedJobs)
	}
	if res.Errors["transport"] != int64(res.Completed) || res.Completed == 0 {
		t.Fatalf("want every op tallied as transport error, got %v over %d ops", res.Errors, res.Completed)
	}
}

// TestZipfMixIsHeavyTailed pins the template mix shape: with skew >1
// the most popular template must dominate a uniform share by a wide
// margin.
func TestZipfMixIsHeavyTailed(t *testing.T) {
	counts := map[api.TemplateHash]int{}
	rec := &recordingTarget{onRank: func(jobs []api.RankRequest) {
		for _, j := range jobs {
			counts[j.TemplateHash]++
		}
	}}
	r := NewRunner(Config{Target: rec, Batch: 8, Seed: 3})
	r.RunPhase(context.Background(), Phase{Name: "z", Shape: ShapeConstant, Duration: 300 * time.Millisecond, Low: 200})

	total, max := 0, 0
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		t.Fatal("no jobs recorded")
	}
	if share := float64(max) / float64(total); share < 0.2 {
		t.Fatalf("top template share %.2f, want heavy-tailed (≥ 0.2; uniform would be %.3f)", share, 1.0/64)
	}
}

// recordingTarget is an in-memory Target for mix-shape tests. The
// runner's workers call it concurrently, so onRank runs under mu.
type recordingTarget struct {
	mu     sync.Mutex
	onRank func(jobs []api.RankRequest)
}

func (r *recordingTarget) RankBatch(_ context.Context, jobs []api.RankRequest) (api.BatchRankResponse, error) {
	r.mu.Lock()
	r.onRank(jobs)
	r.mu.Unlock()
	out := api.BatchRankResponse{Results: make([]api.RankResult, len(jobs))}
	for i := range out.Results {
		out.Results[i].Source = api.SourceBandit
	}
	return out, nil
}

func (r *recordingTarget) RewardBatch(_ context.Context, events []api.RewardEvent) (api.BatchRewardResponse, error) {
	return api.BatchRewardResponse{Queued: len(events)}, nil
}

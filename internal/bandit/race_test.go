package bandit

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentRankRewardTrain exercises the serve-path access pattern —
// many goroutines ranking and rewarding while training, scoring, and
// snapshotting run alongside — and relies on the -race detector to catch
// unguarded state. Run with: go test -race ./internal/bandit/
func TestConcurrentRankRewardTrain(t *testing.T) {
	svc := New(DefaultConfig(7))
	ctxFor := func(i int) Context {
		return Context{IDs: HashFeatures([]string{fmt.Sprintf("span:%d", i%13), fmt.Sprintf("rows:%d", i%5)})}
	}
	actions := []Action{
		{ID: "noop", IDs: HashFeatures([]string{"act:noop"})},
		{ID: "+R010", IDs: HashFeatures([]string{"rule:10", "cat:off-by-default"})},
		{ID: "-R042", IDs: HashFeatures([]string{"rule:42", "cat:on-by-default"})},
	}

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ranked, err := svc.Rank(ctxFor(g*perG+i), actions)
				if err != nil {
					t.Error(err)
					return
				}
				// The just-ranked event is unrewarded, so no concurrent
				// Train can have consumed it, and the unbounded default
				// config never evicts: this Reward must succeed.
				if err := svc.Reward(ranked.EventID, 1.0+float64(ranked.Chosen)*0.1); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					svc.Train()
				}
			}
		}(g)
	}
	// Concurrent readers: scoring, snapshotting, log inspection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			svc.Score(ctxFor(i), actions[1])
			svc.LogSize()
			var buf bytes.Buffer
			if err := svc.Save(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// The rewards after each goroutine's last Train are still open:
	// collect them before the Train that releases them.
	events := svc.Events()
	svc.Train()
	if got := svc.LogSize(); got != 0 {
		t.Fatalf("LogSize = %d after training all %d decisions, want 0: an uncapped log keeps no slot once every decision is trained", got, goroutines*perG)
	}
	if _, err := svc.CounterfactualValue(events, svc.GreedyPolicy()); err != nil {
		t.Fatalf("CounterfactualValue: %v", err)
	}
}

// TestMaxLogEviction covers the serve-path bound: with a log cap, old
// events are evicted (late rewards report unknown) and the log stays
// within cap plus compaction slack.
func TestMaxLogEviction(t *testing.T) {
	svc := New(Config{Dim: 1 << 10, Seed: 1})
	svc.SetMaxLog(100)
	ctx := Context{IDs: HashFeatures([]string{"span:1"})}
	actions := []Action{{ID: "a"}, {ID: "b"}}

	var first string
	for i := 0; i < 500; i++ {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r.EventID
		}
	}
	if got := svc.LogSize(); got > 125 {
		t.Errorf("LogSize = %d, want <= cap+slack (125)", got)
	}
	if err := svc.Reward(first, 1); err == nil {
		t.Error("reward for evicted event succeeded, want unknown-event error")
	}

	// Fresh events are still rewardable and trainable.
	r, err := svc.Rank(ctx, actions)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Reward(r.EventID, 2); err != nil {
		t.Fatalf("reward for live event: %v", err)
	}
	if n := svc.Train(); n != 1 {
		t.Errorf("Train consumed %d events, want 1", n)
	}
	// Trained events leave the index: a duplicate reward is rejected.
	if err := svc.Reward(r.EventID, 2); err == nil {
		t.Error("duplicate reward after training succeeded, want error")
	}
	// SetMaxLog(-1) lifts the cap.
	svc.SetMaxLog(-1)
	for i := 0; i < 200; i++ {
		if _, err := svc.Rank(ctx, actions); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.LogSize(); got < 300 {
		t.Errorf("LogSize = %d after lifting cap, want growth past cap", got)
	}
}

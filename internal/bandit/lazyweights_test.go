package bandit

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"

	"qoadvisor/internal/budget"
)

// checkpoint returns s's CheckpointTo bytes.
func checkpoint(t *testing.T, s *Service) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.CheckpointTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFreshServiceRetainedHeap: a Service holds no weight vector until
// something writes a weight. Scoring, every rank policy, a checkpoint and
// loading a snapshot without weights read the missing vector as zeros,
// and decide and encode exactly as a service whose zeroed vector was
// allocated up front; the first Train allocates it, and the trained
// weights and the checkpoint bytes equal that eager service's.
func TestFreshServiceRetainedHeap(t *testing.T) {
	cfg := DefaultConfig(1)
	var lazy *Service
	budget.Retained(t, "bandit.fresh_service", func() int { lazy = New(cfg); return 1 })
	if lazy.w != nil {
		t.Fatalf("a fresh service allocated its weights (%d bytes at Dim %d)", 8*cfg.Dim, cfg.Dim)
	}
	eager := New(cfg)
	eager.w = make([]float64, cfg.Dim)
	if got, want := checkpoint(t, lazy), checkpoint(t, eager); !bytes.Equal(got, want) {
		t.Fatalf("fresh checkpoint\n%s\nan eager zeroed service's\n%s", got, want)
	}

	for i := 0; i < 3*DefaultTrainEvery; i++ {
		ctx, actions := span8Decision(i)
		if g := lazy.Score(ctx, actions[1]); g != 0 || lazy.w != nil {
			t.Fatalf("decision %d: untrained score %v, weights allocated %v", i, g, lazy.w != nil)
		}
		rank := [](func(*Service) (Ranked, error)){
			func(s *Service) (Ranked, error) { return s.Rank(ctx, actions) },
			func(s *Service) (Ranked, error) { return s.RankUniform(ctx, actions) },
			func(s *Service) (Ranked, error) { return s.RankGreedy(ctx, actions) },
		}[i%3]
		got, err := rank(lazy)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := rank(eager)
		if got.Chosen != want.Chosen || got.Prob != want.Prob || i%3 == 2 && got.Chosen != 0 {
			t.Fatalf("decision %d (policy %d): chose %d at %v; the eager service chose %d at %v", i, i%3, got.Chosen, got.Prob, want.Chosen, want.Prob)
		}
		if got.EventID != "" {
			lazy.Reward(got.EventID, float64(i%5)/4)
			eager.Reward(want.EventID, float64(i%5)/4)
		}
	}
	if _, err := lazy.CounterfactualValue(lazy.Events(), lazy.GreedyPolicy()); err != nil || lazy.w != nil {
		t.Fatalf("CounterfactualValue: %v; weights allocated %v", err, lazy.w != nil)
	}
	if loaded, err := Load(bytes.NewReader(checkpoint(t, lazy)), 1); err != nil || loaded.w != nil {
		t.Fatalf("loading a snapshot without weights: %v; weights allocated %v", err, loaded != nil && loaded.w != nil)
	}

	if n, m := lazy.Train(), eager.Train(); n != m || n == 0 {
		t.Fatalf("trained %d events, the eager service %d", n, m)
	}
	if len(lazy.w) != cfg.Dim || !slices.Equal(lazy.w, eager.w) {
		t.Fatalf("after Train: %d weights, equal to the eager service's: %v", len(lazy.w), slices.Equal(lazy.w, eager.w))
	}
	got, want := checkpoint(t, lazy), checkpoint(t, eager)
	if !bytes.Equal(got, want) || strings.Count(string(got), "\n") < 2 {
		t.Fatalf("trained checkpoints differ (%d and %d bytes) or hold no weight", len(got), len(want))
	}
	if loaded, err := Load(bytes.NewReader(got), 1); err != nil || !slices.Equal(loaded.w, eager.w) {
		t.Fatalf("loading the trained checkpoint: %v; weights equal: %v", err, err == nil && slices.Equal(loaded.w, eager.w))
	}
}

// TestLazyWeightsRace: a fresh service's first Train allocates the weight
// vector while Rank, RankGreedy and CheckpointTo read it. Under -race
// this proves the allocation is published under mu's write lock; every
// decision stays in range and every checkpoint encodes.
func TestLazyWeightsRace(t *testing.T) {
	for round := 0; round < 2; round++ {
		s := New(Config{Dim: 1 << 12, Seed: int64(round)})
		s.SetMaxLog(ServingMaxLog)
		for i := 0; i < 16; i++ {
			ctx, actions := span8Decision(i)
			r, err := s.Rank(ctx, actions)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Reward(r.EventID, float64(i%3)); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		read := func(f func(i int) error) {
			defer wg.Done()
			<-start
			for i := 0; i < 16; i++ {
				if err := f(i); err != nil {
					t.Error(err)
					return
				}
			}
		}
		wg.Add(4)
		go read(func(i int) error {
			ctx, actions := span8Decision(i)
			r, err := s.Rank(ctx, actions)
			if err == nil && (r.Chosen < 0 || r.Chosen >= len(actions)) {
				t.Errorf("Rank chose %d of %d actions", r.Chosen, len(actions))
			}
			return err
		})
		go read(func(i int) error {
			ctx, actions := span8Decision(i)
			r, err := s.RankGreedy(ctx, actions)
			if err == nil && (r.Chosen < 0 || r.Chosen >= len(actions)) {
				t.Errorf("RankGreedy chose %d of %d actions", r.Chosen, len(actions))
			}
			return err
		})
		go read(func(int) error { return s.CheckpointTo(&bytes.Buffer{}) })
		go func() {
			defer wg.Done()
			<-start
			if n := s.Train(); n != 16 {
				t.Errorf("the first Train consumed %d events, want 16", n)
			}
		}()
		close(start)
		wg.Wait()
		s.mu.RLock()
		allocated := len(s.w) == 1<<12
		s.mu.RUnlock()
		if !allocated {
			t.Fatalf("round %d: the first Train left %d weights, want 4096", round, len(s.w))
		}
	}
}

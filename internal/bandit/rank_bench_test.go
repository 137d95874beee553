package bandit_test

import (
	"math"
	"math/rand"
	"testing"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/rules"
)

// featurizedDecisions builds n decisions the way a serving node does:
// spans of 2 to 8 bits (span length i%7+2, as qobench's population draws
// them) over the catalog's rules 32–255, featurized by internal/featurize
// with a log-uniform row count and bytes read.
func featurizedDecisions(n int) (ctxs []bandit.Context, actions [][]bandit.Action) {
	cat := rules.NewCatalog()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		var span rules.Bitset
		for span.Count() < 2+i%7 {
			span.Set(32 + rng.Intn(rules.NumRules-32))
		}
		rows := math.Floor(math.Exp(rng.Float64() * math.Log(1e6)))
		bytes := math.Floor(math.Exp(rng.Float64() * math.Log(1e9)))
		ctxs = append(ctxs, featurize.Context(span, rows, bytes))
		actions = append(actions, featurize.Actions(cat, span))
	}
	return ctxs, actions
}

// BenchmarkRankDecision times one whole decision — every action scored
// and the argmax taken — over 2,000 featurized span-2–8 decisions on a
// model trained on 4,096 rewarded ones, at the serving Dim and log cap.
// Rank and RankUniform log each decision (and drop what the cap evicts);
// RankGreedy, a follower's read, logs nothing. RankUniform scores
// nothing: its choice is a uniform draw. BenchmarkScoreSpan8 times the
// scorer alone, one action at a time.
func BenchmarkRankDecision(b *testing.B) {
	ctxs, actions := featurizedDecisions(2000)
	s := bandit.New(bandit.DefaultConfig(1))
	s.SetMaxLog(bandit.ServingMaxLog)
	for i := 0; i < 4096; i++ {
		r, err := s.Rank(ctxs[i%len(ctxs)], actions[i%len(ctxs)])
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Reward(r.EventID, float64(i%5)/4); err != nil {
			b.Fatal(err)
		}
		if i%bandit.DefaultTrainEvery == bandit.DefaultTrainEvery-1 {
			s.Train()
		}
	}
	for _, m := range []struct {
		name string
		rank func(bandit.Context, []bandit.Action) (bandit.Ranked, error)
	}{
		{"Rank", s.Rank},
		{"RankGreedy", s.RankGreedy},
		{"RankUniform", s.RankUniform},
	} {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.rank(ctxs[i%len(ctxs)], actions[i%len(ctxs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

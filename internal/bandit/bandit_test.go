package bandit

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func twoActions() []Action {
	return []Action{
		{ID: "good", IDs: HashFeatures([]string{"rule:good"})},
		{ID: "bad", IDs: HashFeatures([]string{"rule:bad"})},
	}
}

func TestRankReturnsValidChoice(t *testing.T) {
	s := New(DefaultConfig(1))
	r, err := s.Rank(Context{IDs: HashFeatures([]string{"f1"})}, twoActions())
	if err != nil {
		t.Fatal(err)
	}
	if r.Chosen < 0 || r.Chosen >= 2 {
		t.Errorf("chosen = %d", r.Chosen)
	}
	if r.Prob <= 0 || r.Prob > 1 {
		t.Errorf("prob = %v", r.Prob)
	}
	if r.EventID == "" {
		t.Error("missing event ID")
	}
}

func TestRankEmptyActionsFails(t *testing.T) {
	s := New(DefaultConfig(1))
	if _, err := s.Rank(Context{}, nil); err == nil {
		t.Error("expected error")
	}
}

func TestRewardUnknownEventFails(t *testing.T) {
	s := New(DefaultConfig(1))
	if err := s.Reward("nope", 1); err == nil {
		t.Error("expected error")
	}
}

func TestLearnsGoodAction(t *testing.T) {
	// Action "good" always yields reward 1, "bad" yields 0. After
	// training on uniform exploration data, the greedy policy must
	// prefer "good".
	s := New(DefaultConfig(7))
	ctx := Context{IDs: HashFeatures([]string{"span:1", "span:2"})}
	actions := twoActions()
	for i := 0; i < 300; i++ {
		r, err := s.RankUniform(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		reward := 0.0
		if actions[r.Chosen].ID == "good" {
			reward = 1
		}
		if err := s.Reward(r.EventID, reward); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Train(); n != 300 {
		t.Fatalf("trained %d events, want 300", n)
	}
	if s.Score(ctx, actions[0]) <= s.Score(ctx, actions[1]) {
		t.Errorf("good score %v should exceed bad %v",
			s.Score(ctx, actions[0]), s.Score(ctx, actions[1]))
	}
	pol := s.GreedyPolicy()
	if pol(ctx, actions) != 0 {
		t.Error("greedy policy should pick the good action")
	}
}

func TestContextDependentLearning(t *testing.T) {
	// The best action depends on the context: in ctxA action 0 wins, in
	// ctxB action 1 wins. A linear model over ctx×action crosses must
	// separate them.
	s := New(DefaultConfig(3))
	ctxA := Context{IDs: HashFeatures([]string{"kind:A"})}
	ctxB := Context{IDs: HashFeatures([]string{"kind:B"})}
	actions := twoActions()
	for i := 0; i < 600; i++ {
		ctx, winner := ctxA, 0
		if i%2 == 1 {
			ctx, winner = ctxB, 1
		}
		r, _ := s.RankUniform(ctx, actions)
		reward := 0.0
		if r.Chosen == winner {
			reward = 1
		}
		s.Reward(r.EventID, reward)
	}
	s.Train()
	pol := s.GreedyPolicy()
	if pol(ctxA, actions) != 0 {
		t.Error("ctxA should prefer action 0")
	}
	if pol(ctxB, actions) != 1 {
		t.Error("ctxB should prefer action 1")
	}
}

func TestEpsilonGreedyExploresSometimes(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.Epsilon = 0.5
	s := New(cfg)
	ctx := Context{IDs: HashFeatures([]string{"x"})}
	actions := twoActions()
	// Bias the model hard toward action 0.
	for i := 0; i < 100; i++ {
		r, _ := s.RankUniform(ctx, actions)
		reward := 0.0
		if r.Chosen == 0 {
			reward = 1
		}
		s.Reward(r.EventID, reward)
	}
	s.Train()
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		r, _ := s.Rank(ctx, actions)
		counts[r.Chosen]++
	}
	if counts[1] == 0 {
		t.Error("epsilon-greedy should still explore the worse action")
	}
	if counts[0] <= counts[1] {
		t.Error("learned policy should mostly exploit the better action")
	}
}

func TestPropensitiesAreConsistent(t *testing.T) {
	cfg := DefaultConfig(11)
	cfg.Epsilon = 0.2
	s := New(cfg)
	ctx := Context{IDs: HashFeatures([]string{"x"})}
	actions := twoActions()
	for i := 0; i < 50; i++ {
		r, _ := s.Rank(ctx, actions)
		// With k=2, eps=0.2: probs are either 0.9 (greedy) or 0.1.
		if math.Abs(r.Prob-0.9) > 1e-9 && math.Abs(r.Prob-0.1) > 1e-9 {
			t.Fatalf("unexpected propensity %v", r.Prob)
		}
	}
	r, _ := s.RankUniform(ctx, actions)
	if math.Abs(r.Prob-0.5) > 1e-9 {
		t.Errorf("uniform propensity = %v, want 0.5", r.Prob)
	}
}

func TestTrainSkipsUnrewardedAndRetrained(t *testing.T) {
	s := New(DefaultConfig(1))
	ctx := Context{IDs: HashFeatures([]string{"x"})}
	r1, _ := s.Rank(ctx, twoActions())
	s.Rank(ctx, twoActions()) // never rewarded
	s.Reward(r1.EventID, 1)
	if n := s.Train(); n != 1 {
		t.Errorf("first train = %d, want 1", n)
	}
	if n := s.Train(); n != 0 {
		t.Errorf("second train = %d, want 0 (already trained)", n)
	}
}

func TestCounterfactualValue(t *testing.T) {
	s := New(DefaultConfig(13))
	ctx := Context{IDs: HashFeatures([]string{"x"})}
	actions := twoActions()
	for i := 0; i < 400; i++ {
		r, _ := s.RankUniform(ctx, actions)
		reward := 0.0
		if r.Chosen == 0 {
			reward = 1
		}
		s.Reward(r.EventID, reward)
	}
	alwaysGood := func(Context, []Action) int { return 0 }
	alwaysBad := func(Context, []Action) int { return 1 }
	vGood, err := s.CounterfactualValue(alwaysGood)
	if err != nil {
		t.Fatal(err)
	}
	vBad, _ := s.CounterfactualValue(alwaysBad)
	// True values are 1.0 and 0.0; IPS is unbiased, so estimates should
	// be near those.
	if math.Abs(vGood-1) > 0.25 {
		t.Errorf("V(good) = %v, want ~1", vGood)
	}
	if math.Abs(vBad) > 0.25 {
		t.Errorf("V(bad) = %v, want ~0", vBad)
	}
	empty := New(DefaultConfig(1))
	if _, err := empty.CounterfactualValue(alwaysGood); err == nil {
		t.Error("empty log should error")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []int {
		s := New(DefaultConfig(42))
		var picks []int
		for i := 0; i < 30; i++ {
			ctx := Context{IDs: HashFeatures([]string{fmt.Sprintf("c%d", i%3)})}
			r, _ := s.Rank(ctx, twoActions())
			s.Reward(r.EventID, float64(r.Chosen))
			if i%10 == 9 {
				s.Train()
			}
			picks = append(picks, r.Chosen)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at step %d", i)
		}
	}
}

func TestLogGrowth(t *testing.T) {
	s := New(DefaultConfig(1))
	for i := 0; i < 5; i++ {
		s.Rank(Context{}, twoActions())
	}
	if s.LogSize() != 5 {
		t.Errorf("log size = %d", s.LogSize())
	}
	if len(s.Events()) != 5 {
		t.Errorf("events = %d", len(s.Events()))
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	s := New(Config{})
	if s.cfg.Dim <= 0 || s.cfg.Epsilon <= 0 || s.cfg.LearningRate <= 0 || s.cfg.MaxIPSWeight <= 0 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := New(DefaultConfig(3))
	ctx := Context{IDs: HashFeatures([]string{"span:1", "span:9"})}
	actions := twoActions()
	for i := 0; i < 150; i++ {
		r, _ := s.RankUniform(ctx, actions)
		reward := 0.0
		if r.Chosen == 0 {
			reward = 1
		}
		s.Reward(r.EventID, reward)
	}
	s.Train()

	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(strings.NewReader(buf.String()), 99)
	if err != nil {
		t.Fatal(err)
	}
	// Scores must be bit-identical after a round trip.
	for _, a := range actions {
		if got, want := restored.Score(ctx, a), s.Score(ctx, a); got != want {
			t.Errorf("score(%s) = %v, want %v", a.ID, got, want)
		}
	}
	// The restored model ranks like the original.
	pol := restored.GreedyPolicy()
	if pol(ctx, actions) != s.GreedyPolicy()(ctx, actions) {
		t.Error("restored policy disagrees with the original")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage\n",
		"qoadvisor-bandit v3 dim=8 epsilon=0.1 lr=0.1 clip=10 wal=0\nbadline\n",
		"qoadvisor-bandit v3 dim=8 epsilon=0.1 lr=0.1 clip=10 wal=0\n99 1.5\n", // index out of range
		"qoadvisor-bandit v3 dim=8 epsilon=0.1 lr=0.1 clip=10 wal=0\n1 xyz\n",
	}
	for _, src := range cases {
		if _, err := Load(strings.NewReader(src), 1); err == nil {
			t.Errorf("Load(%q) should fail", src)
		}
	}
}

func TestSaveSkipsZeroWeights(t *testing.T) {
	s := New(Config{Dim: 1 << 16, Seed: 1})
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 1 { // header only
		t.Errorf("untrained model should save only the header, got %d lines", lines)
	}
}

// TestRankGreedyReadOnly pins the follower serving contract: RankGreedy
// returns the same argmax as the exploit arm of Rank, mutates nothing
// (no event logged, no rng consumed), and is deterministic.
func TestRankGreedyReadOnly(t *testing.T) {
	svc := New(DefaultConfig(11))
	ctx := Context{IDs: HashFeatures([]string{"spanbit:3", "spanbit:9"})}
	actions := []Action{{ID: "noop"}, {ID: "flip-a", IDs: HashFeatures([]string{"rule:12"})}, {ID: "flip-b", IDs: HashFeatures([]string{"rule:40"})}}

	// Train a little so the argmax is non-trivial.
	for i := 0; i < 20; i++ {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		reward := 0.0
		if r.Chosen == 1 {
			reward = 1.0
		}
		if err := svc.Reward(r.EventID, reward); err != nil {
			t.Fatal(err)
		}
	}
	svc.Train()

	before := svc.LogSize()
	g1, err := svc.RankGreedy(ctx, actions)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := svc.RankGreedy(ctx, actions)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Chosen != g2.Chosen || g1.Prob != g2.Prob {
		t.Fatalf("RankGreedy not deterministic: %+v vs %+v", g1, g2)
	}
	if g1.EventID != "" {
		t.Fatalf("RankGreedy assigned event ID %q", g1.EventID)
	}
	if svc.LogSize() != before {
		t.Fatalf("RankGreedy grew the event log %d -> %d", before, svc.LogSize())
	}
	// The greedy choice must equal the model's argmax.
	best := 0
	for i := range actions {
		if svc.Score(ctx, actions[i]) > svc.Score(ctx, actions[best]) {
			best = i
		}
	}
	if g1.Chosen != best {
		t.Fatalf("RankGreedy chose %d, argmax is %d", g1.Chosen, best)
	}
}

// TestRankKeepsItsOwnCopy ranks every decision from one context buffer
// and one action buffer, scribbling over both after each call, beside a
// reference service fed fresh slices: the logged contexts and actions,
// the choices and the weights Train learns from them must all agree.
// Two decisions are longer than a storage block. The journal of those
// ranks is then replayed a record at a time from one buffer, scribbled
// after each Apply: the replayed events must equal the live ones.
func TestRankKeepsItsOwnCopy(t *testing.T) {
	cfg := Config{Dim: 1 << 12, Seed: 7}
	ref, got := New(cfg), New(cfg)
	j := &memJournal{}
	got.AttachJournal(j)
	ctxBuf := make([]uint64, 0, 128)
	actBuf := make([]Action, 0, 16)
	junk := Action{ID: "scribbled", IDs: []uint64{0xdead, 0xbeef}}
	for i := 0; i < 600; i++ {
		ctx, actions := spanDecision(Mix64(uint64(i)+0x0c09), 1+i%8)
		switch i {
		case 300:
			for len(ctx.IDs) <= ctxBlockLen {
				ctx.IDs = append(ctx.IDs, Mix64(uint64(len(ctx.IDs))))
			}
		case 301:
			for base := actions; len(actions) <= actBlockLen; {
				actions = append(actions, base[len(actions)%len(base)])
			}
		}
		rank := (*Service).Rank
		if i%3 == 2 {
			rank = (*Service).RankUniform
		}
		want, err := rank(ref, ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		ctxBuf = append(ctxBuf[:0], ctx.IDs...)
		actBuf = append(actBuf[:0], actions...)
		r, err := rank(got, Context{IDs: ctxBuf}, actBuf)
		if err != nil {
			t.Fatal(err)
		}
		for k, full := 0, ctxBuf[:cap(ctxBuf)]; k < len(full); k++ {
			full[k] = ^uint64(k)
		}
		for k, full := 0, actBuf[:cap(actBuf)]; k < len(full); k++ {
			full[k] = junk
		}
		if r.Chosen != want.Chosen || r.Prob != want.Prob {
			t.Fatalf("decision %d: chose %d with p=%v, reference %d with p=%v", i, r.Chosen, r.Prob, want.Chosen, want.Prob)
		}
		reward := float64(i%7) / 6
		if err := ref.Reward(want.EventID, reward); err != nil {
			t.Fatal(err)
		}
		if err := got.Reward(r.EventID, reward); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			ref.Train()
			got.Train()
		}
	}
	ref.Train()
	got.Train()
	refEvents, gotEvents := ref.Events(), got.Events()
	if len(gotEvents) != len(refEvents) {
		t.Fatalf("logged %d events, reference %d", len(gotEvents), len(refEvents))
	}
	for i, ev := range gotEvents {
		want := refEvents[i]
		if !reflect.DeepEqual(ev.Context, want.Context) || !reflect.DeepEqual(ev.Actions, want.Actions) {
			t.Fatalf("event %d: logged context %x and %d actions %+v, reference %x and %+v",
				i, ev.Context.IDs, len(ev.Actions), ev.Actions, want.Context.IDs, want.Actions)
		}
	}
	if !slices.Equal(got.w, ref.w) {
		t.Error("weights trained from the scribbled buffers differ from the reference's")
	}

	replica := New(cfg)
	rp := NewReplayer(replica)
	var rec []byte
	for lsn, r := range j.recs {
		rec = append(rec[:0], r...)
		if err := rp.Apply(uint64(lsn+1), rec); err != nil {
			t.Fatal(err)
		}
		for k, full := 0, rec[:cap(rec)]; k < len(full); k++ {
			full[k] = byte(k)
		}
	}
	replayed := replica.Events()
	if len(replayed) != len(gotEvents) {
		t.Fatalf("replayed %d events, logged %d", len(replayed), len(gotEvents))
	}
	for i, ev := range replayed {
		live := gotEvents[i]
		if ev.EventID != live.EventID || !slices.Equal(ev.Context.IDs, live.Context.IDs) ||
			!slices.Equal(ev.Actions[ev.Chosen].IDs, live.Actions[live.Chosen].IDs) || ev.Prob != live.Prob {
			t.Fatalf("event %d: replayed %q, context %x, chosen %x, p=%v; logged %q, %x, %x, p=%v", i,
				ev.EventID, ev.Context.IDs, ev.Actions[ev.Chosen].IDs, ev.Prob,
				live.EventID, live.Context.IDs, live.Actions[live.Chosen].IDs, live.Prob)
		}
	}
}

// TestBlockEventIDsMatchAppendEventID holds the IDs Rank hands out and
// logs to appendEventID's format, sequence number by sequence number,
// across the eight-digit padding boundary.
func TestBlockEventIDsMatchAppendEventID(t *testing.T) {
	s := New(Config{Dim: 1 << 10, Seed: 1})
	s.SetMaxLog(64)
	s.seq = 99_999_900
	ctx, actions := spanDecision(1, 3)
	for i := 0; i < 300; i++ {
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("ev%s-%08d", s.nonce, 99_999_901+i)
		if r.EventID != want || !s.HasEvent(want) {
			t.Fatalf("decision %d: event ID %q (logged: %v), want %q", i, r.EventID, s.HasEvent(want), want)
		}
	}
}

package bandit

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/walrec"
)

// span8Decision builds decision i of an 8-bit span, the benchmark's
// widest: 79 context IDs, a no-op and eight four-ID flips.
func span8Decision(i int) (Context, []Action) {
	return spanDecision(Mix64(uint64(i)+0x5ba8), 8)
}

// nullJournal honours the Journal contract at no cost: it reads nothing
// and retains nothing.
type nullJournal struct{ n uint64 }

func (j *nullJournal) Append([]byte) (uint64, error) { j.n++; return j.n, nil }
func (j *nullJournal) LastLSN() uint64               { return j.n }

// rewardedBatch ranks and rewards n span-8 decisions, leaving them pending.
func rewardedBatch(tb testing.TB, s *Service, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		ctx, actions := span8Decision(i)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Reward(r.EventID, float64(i%7)/3); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestDecisionAllocBudget is the tier-1 gate on what the learner itself
// allocates per decision, with a journal attached and the benchmark's
// widest span. Rank copies the decision into blocks the log owns, so
// what it allocates is a block now and then plus the event index and
// log growing: over 2,000, and counted exactly over 100,000 into a
// serving-capped log. RankGreedy keeps nothing, Train allocates its
// example list, a checkpoint only its growing buffer.
func TestDecisionAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(DefaultConfig(1))
	s.AttachJournal(&nullJournal{})
	ctx, actions := span8Decision(0)
	budget.Allocs(t, "bandit.rank", 2000, func() {
		if _, err := s.Rank(ctx, actions); err != nil {
			t.Fatal(err)
		}
	})
	capped := New(Config{Seed: 1})
	capped.SetMaxLog(ServingMaxLog)
	capped.AttachJournal(&nullJournal{})
	budget.Mallocs(t, "bandit.rank.capped", func() int {
		for i := 0; i < 100_000; i++ {
			if _, err := capped.Rank(ctx, actions); err != nil {
				t.Fatal(err)
			}
		}
		return 100_000
	})
	budget.Allocs(t, "bandit.rank_greedy", 2000, func() {
		if _, err := s.RankGreedy(ctx, actions); err != nil {
			t.Fatal(err)
		}
	})

	rewardedBatch(t, s, 256)
	s.Train() // warm the index slab
	budget.Gate(t, "bandit.train", func() float64 {
		best := uint64(math.MaxUint64)
		for round := 0; round < 3; round++ {
			rewardedBatch(t, s, 256)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Train()
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return float64(best)
	})

	big := New(DefaultConfig(1))
	big.w = make([]float64, big.cfg.Dim)
	for i := 0; i < 100_000; i++ {
		big.w[2*i+1] = float64(i+1) / 7
	}
	budget.Allocs(t, "bandit.checkpoint", 3, func() {
		if err := big.CheckpointTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

// TestReplayAllocBudget gates journal replay — a follower's apply, a
// restart's recovery, an as-of rebuild — per record. A rank record is
// stored in the log's blocks the way a ranked decision is, and a reward
// batch is read in place, so what replay allocates is a block now and
// then, the log and its index growing and training's example list,
// counted exactly over runs of 16 span-8 rank records, each followed by
// the reward batch that names them, into a serving-capped log.
func TestReplayAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	live := New(Config{Seed: 1})
	live.SetMaxLog(ServingMaxLog)
	j := &memJournal{}
	live.AttachJournal(j)
	batch := make([]walrec.RewardEntry, 16)
	for round := 0; round < 2048; round++ {
		for i := range batch {
			ctx, actions := span8Decision(round*len(batch) + i)
			r, err := live.Rank(ctx, actions)
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = walrec.RewardEntry{EventID: r.EventID, Value: float64(i%7) / 3}
		}
		j.Append(walrec.EncodeRewardBatch(batch))
	}

	replica := New(Config{Seed: 1})
	replica.SetMaxLog(ServingMaxLog)
	rp := NewReplayer(replica)
	apply := func(from, to int) int {
		for lsn := from; lsn < to; lsn++ {
			if err := rp.Apply(uint64(lsn+1), j.recs[lsn]); err != nil {
				t.Fatal(err)
			}
		}
		return to - from
	}
	warm := len(j.recs) / 4
	apply(0, warm)
	budget.Mallocs(t, "bandit.replay", func() int { return apply(warm, len(j.recs)) })
	if st := rp.Stats(); st.UnknownRewards != 0 || st.Ranks != int64(len(j.recs)*16/17) {
		t.Fatalf("replay stats %+v", st)
	}
}

// TestEventLogBytesPerDecision pins what the decision log keeps resident
// per logged event at the serving cap: 40,000 decisions of span 2–8,
// each featurized into fresh slices with its action IDs shared from one
// table (as internal/featurize shares a catalog's).
//   - open: no decision is rewarded, so every logged event keeps its
//     features and its entry in the event index. The block sizes decide
//     it: a block's unused tail is waste, which a smaller block makes
//     worse.
//   - trained: every decision is rewarded and trained 256 at a time (the
//     ingestor's batch), so a logged event is its nil slot and nothing
//     else.
//   - offline: the offline pipeline's uncapped learner, fed as the
//     pipeline feeds it: 256 decisions ranked, then each rewarded or,
//     one in four, forgotten (a failed recompilation), then trained.
//     The log then holds no slot, so the heap is counted per decision
//     made: what stays is the learner's fixed scratch, most of it
//     Train's index slab (≈ 170 KB), not anything per decision. The log
//     read 16.6 while it kept a nil slot for every decision for good,
//     and before Train released on an uncapped log and Forget existed,
//     such an event kept its features and, forgotten, its index entry
//     too.
//   - loaded: the open log is saved, and what its snapshot's events keep
//     once Load restores them into a serving-capped service is
//     measured. A loaded event is stored as a replayed one is, with only
//     its chosen action, so it holds less than an open one; one that
//     kept a view of its snapshot line and slices of its own held
//     1,235.8.
func TestEventLogBytesPerDecision(t *testing.T) {
	t.Run("open", func(t *testing.T) {
		s, decide := eventLog(t, "open")
		budget.Retained(t, "bandit.log.open", func() int { decide(); return s.LogSize() })
	})
	t.Run("trained", func(t *testing.T) {
		s, decide := eventLog(t, "trained")
		budget.Retained(t, "bandit.log.trained", func() int { decide(); return s.LogSize() })
	})
	t.Run("offline", func(t *testing.T) {
		s, decide := eventLog(t, "offline")
		budget.Retained(t, "bandit.log.offline", func() int { decide(); return eventLogDecisions })
		if len(s.Events()) != 0 || s.LogSize() != 0 {
			t.Fatalf("%d events still open, %d slots kept, after every decision was rewarded or forgotten and trained", len(s.Events()), s.LogSize())
		}
	})
	t.Run("loaded", func(t *testing.T) {
		s, decide := eventLog(t, "open")
		decide()
		var snap bytes.Buffer
		if err := s.Save(&snap); err != nil {
			t.Fatal(err)
		}
		var loaded *Service
		budget.Retained(t, "bandit.log.loaded", func() int {
			var err error
			if loaded, err = Load(&snap, 1); err != nil {
				t.Fatal(err)
			}
			loaded.SetMaxLog(ServingMaxLog)
			return loaded.LogSize()
		})
		runtime.KeepAlive(loaded)
		runtime.KeepAlive(&snap)
	})
}

// eventLogDecisions is how many decisions eventLog's run makes.
const eventLogDecisions = 40_000

// eventLog is TestEventLogBytesPerDecision's service for mode, its
// weights allocated up front (the first Train's weights are not the
// log's), and the run that logs eventLogDecisions decisions into it and
// trains what was rewarded: none in mode "open", every one 256 at a
// time in mode "trained", and in mode "offline", where the log is
// uncapped, each batch of 256 rewarded or forgotten. The service and the
// action table stay live while t runs.
func eventLog(t *testing.T, mode string) (*Service, func()) {
	var table [256]Action
	for r := range table {
		rule := uint64(r)
		table[r] = Action{ID: fmt.Sprintf("R%03d", r), IDs: []uint64{
			Mix64(0xa1<<32 + rule), Mix64(0xa2<<32 + rule%38), Mix64(0xa3<<32 + rule%4), Mix64(0xa4<<32 + (rule%38)*2 + rule&1),
		}}
	}
	noop := Action{ID: "noop", IDs: []uint64{Mix64(0xa0)}}
	s := New(Config{Seed: 1})
	if mode != "offline" {
		s.SetMaxLog(ServingMaxLog)
	}
	s.w = make([]float64, s.cfg.Dim)
	t.Cleanup(func() { runtime.KeepAlive(s); runtime.KeepAlive(&table) })
	return s, func() {
		var batch []string
		for i := 0; i < eventLogDecisions; i++ {
			r := Mix64(uint64(i) + 0xb17e)
			n := 2 + int(r%7)
			ctx := Context{IDs: make([]uint64, n+min(n*(n-1)/2, 60)+min(n*(n-1)*(n-2)/6, 40)+3)}
			for k := range ctx.IDs {
				r = Mix64(r + MixGamma)
				ctx.IDs[k] = r
			}
			actions := make([]Action, 1, n+1)
			actions[0] = noop
			for k := 0; k < n; k++ {
				r = Mix64(r + MixGamma)
				actions = append(actions, table[r%256])
			}
			ranked, err := s.Rank(ctx, actions)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "offline" {
				if batch = append(batch, ranked.EventID); len(batch) == 256 || i == eventLogDecisions-1 {
					for k, id := range batch {
						if k%4 == 3 {
							if !s.Forget(id) {
								t.Fatalf("Forget(%s) refused an open event", id)
							}
						} else if err := s.Reward(id, float64(k%5)/4); err != nil {
							t.Fatal(err)
						}
					}
					batch = batch[:0]
					s.Train()
				}
				continue
			}
			if mode != "trained" {
				continue
			}
			if err := s.Reward(ranked.EventID, float64(i%5)/4); err != nil {
				t.Fatal(err)
			}
			if i%256 == 255 {
				s.Train()
			}
		}
		s.Train()
	}
}

// referenceEncode is the snapshot encoder as it was written through fmt;
// TestSnapshotEncodingMatchesFmt holds the strconv encoder to it.
func referenceEncode(s *Service, buf *bytes.Buffer) {
	fmt.Fprintf(buf, "qoadvisor-bandit v3 dim=%d epsilon=%g lr=%g clip=%g wal=%d\n",
		s.cfg.Dim, s.cfg.Epsilon, s.cfg.LearningRate, s.cfg.MaxIPSWeight, s.walLSN)
	for i, wgt := range s.w {
		if wgt == 0 {
			continue
		}
		fmt.Fprintf(buf, "%d %v\n", i, wgt)
	}
	ids := func(ids []uint64) string {
		if len(ids) == 0 {
			return "-"
		}
		var b bytes.Buffer
		for i, id := range ids {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%x", id)
		}
		return b.String()
	}
	for _, ev := range s.log {
		if ev == nil {
			continue
		}
		if _, open := s.events[ev.EventID]; !open || ev.Trained {
			continue
		}
		rewarded := 0
		if ev.Rewarded {
			rewarded = 1
		}
		fmt.Fprintf(buf, "ev %s %v %d %v %s %s\n",
			ev.EventID, ev.Prob, rewarded, ev.Reward, ids(ev.Context.IDs), ids(ev.Actions[ev.Chosen].IDs))
	}
}

// TestSnapshotEncodingMatchesFmt is the differential behind "snapshot v3
// did not move": weights, propensities and rewards drawn from raw bit
// patterns (subnormals, huge and tiny exponents, infinities, NaN) and
// feature IDs of every width encode to the bytes fmt printed.
func TestSnapshotEncodingMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			return float64(rng.Int63n(1<<53)) / float64(int64(1)<<uint(rng.Intn(40)))
		default:
			return float64(rng.Intn(2000)-1000) / 8
		}
	}
	s := New(Config{Dim: 1 << 17, Epsilon: 0.1 / 3, LearningRate: 1e-7, MaxIPSWeight: 1e21, Seed: 1})
	s.walLSN = math.MaxUint64
	s.w = make([]float64, s.cfg.Dim)
	for i := range s.w {
		s.w[i] = float()
	}
	for i := 0; i < 500; i++ {
		nCtx, nAct := rng.Intn(5), rng.Intn(3)
		s.evMu.Lock()
		ev := s.restoreLocked(appendEventID(nil, "d1ff", i), nCtx, nAct)
		ev.Prob, ev.Reward, ev.Rewarded = float(), float(), i%3 == 0
		for k := range ev.Context.IDs {
			ev.Context.IDs[k] = rng.Uint64() >> uint(rng.Intn(64))
		}
		for k := range ev.Actions[0].IDs {
			ev.Actions[0].IDs[k] = rng.Uint64() >> uint(rng.Intn(64))
		}
		s.logLocked(ev)
		s.evMu.Unlock()
	}
	var got, want bytes.Buffer
	if err := s.Save(&got); err != nil {
		t.Fatal(err)
	}
	referenceEncode(s, &want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want.Bytes(), []byte("\n"))
		for i := range g {
			if i >= len(w) || !bytes.Equal(g[i], w[i]) {
				t.Fatalf("snapshot line %d differs from the fmt encoding:\n got %s\nwant %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("snapshot has %d lines, the fmt encoding %d", len(g), len(w))
	}
}

// TestEventIDMatchesSprintf holds the append-rendered event ID to the
// format it replaced, across the eight-digit padding boundary.
func TestEventIDMatchesSprintf(t *testing.T) {
	seqs := []int{0, 1, 9, 10, 99, 12345, 9_999_999, 10_000_000, 99_999_999, 100_000_000, 123_456_789_012, math.MaxInt64}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		seqs = append(seqs, int(rng.Int63()>>uint(rng.Intn(63))))
	}
	for _, nonce := range []string{"", "7e57", "18f3a9c2d4e5b6a7"} {
		for _, seq := range seqs {
			if got, want := string(appendEventID(nil, nonce, seq)), fmt.Sprintf("ev%s-%08d", nonce, seq); got != want {
				t.Fatalf("event ID %q, want %q", got, want)
			}
		}
	}
}

var sinkScore float64

// BenchmarkScoreSpan8 times scoring one 8-bit-span decision: nine actions
// against 79 context IDs, 3,600 hashed pairs.
func BenchmarkScoreSpan8(b *testing.B) {
	s := New(DefaultConfig(1))
	rewardedBatch(b, s, 256)
	s.Train()
	ctx, actions := span8Decision(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range actions {
			sinkScore += s.Score(ctx, a)
		}
	}
}

// BenchmarkTrain256 times the serve layer's training batch: 256 rewarded
// 8-bit-span events, trainEpochs passes.
func BenchmarkTrain256(b *testing.B) {
	s := New(DefaultConfig(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rewardedBatch(b, s, 256)
		b.StartTimer()
		if n := s.Train(); n != 256 {
			b.Fatalf("trained %d events, want 256", n)
		}
	}
}

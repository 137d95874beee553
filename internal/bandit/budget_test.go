package bandit

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

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

// mallocsOf counts the heap allocations of one call of f.
func mallocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDecisionAllocBudget is the tier-1 gate on what the learner itself
// allocates per decision, with a journal attached and the benchmark's
// widest span. Rank copies the decision into blocks the log owns, so
// what it allocates is a block now and then plus the event index and
// log growing: at most one per decision over 2,000, and at most half of
// one, counted exactly, over 100,000 into a serving-capped log.
// RankGreedy keeps nothing, Train allocates its example list, a
// checkpoint only its growing buffer.
func TestDecisionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New(DefaultConfig(1))
	s.AttachJournal(&nullJournal{})
	ctx, actions := span8Decision(0)

	if n := testing.AllocsPerRun(2000, func() {
		if _, err := s.Rank(ctx, actions); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Rank allocates %v times per decision, budget 1", n)
	}
	capped := New(Config{Seed: 1})
	capped.SetMaxLog(ServingMaxLog)
	capped.AttachJournal(&nullJournal{})
	const decisions = 100_000
	if n := float64(mallocsOf(func() {
		for i := 0; i < decisions; i++ {
			if _, err := capped.Rank(ctx, actions); err != nil {
				t.Fatal(err)
			}
		}
	})) / decisions; n > 0.5 {
		t.Errorf("Rank into a %d-event log allocates %.3f times per decision over %d, budget 0.5", ServingMaxLog, n, decisions)
	} else {
		t.Logf("Rank into a %d-event log: %.3f allocations per decision over %d", ServingMaxLog, n, decisions)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := s.RankGreedy(ctx, actions); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("RankGreedy allocates %v times per decision, budget 0", n)
	}

	rewardedBatch(t, s, 256)
	s.Train() // warm the index slab
	best := uint64(math.MaxUint64)
	for round := 0; round < 3; round++ {
		rewardedBatch(t, s, 256)
		if n := mallocsOf(func() { s.Train() }); n < best {
			best = n
		}
	}
	if best > 2 {
		t.Errorf("Train over 256 rewarded events allocates %d times with a warm slab, budget 2", best)
	}

	big := New(DefaultConfig(1))
	big.w = make([]float64, big.cfg.Dim)
	for i := 0; i < 100_000; i++ {
		big.w[2*i+1] = float64(i+1) / 7
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := big.CheckpointTo(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n > 40 {
		t.Errorf("CheckpointTo of 100,000 non-zero weights allocates %v times, budget 40 (buffer growth only)", n)
	}
}

// TestReplayAllocBudget gates journal replay — a follower's apply, a
// restart's recovery, an as-of rebuild — per record. A rank record is
// stored in the log's blocks the way a ranked decision is, and a reward
// batch is read in place, so what replay allocates is a block now and
// then, the log and its index growing and training's example list: at
// most 0.1 per record, counted exactly over runs of 16 span-8 rank
// records, each followed by the reward batch that names them, into a
// serving-capped log.
func TestReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
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
	apply := func(from, to int) {
		for lsn := from; lsn < to; lsn++ {
			if err := rp.Apply(uint64(lsn+1), j.recs[lsn]); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm := len(j.recs) / 4
	apply(0, warm)
	n := float64(mallocsOf(func() { apply(warm, len(j.recs)) })) / float64(len(j.recs)-warm)
	if st := rp.Stats(); st.UnknownRewards != 0 || st.Ranks != int64(len(j.recs)*16/17) {
		t.Fatalf("replay stats %+v", st)
	}
	if n > 0.1 {
		t.Errorf("replay allocates %.3f times per applied rank or reward-batch record, budget 0.1", n)
	} else {
		t.Logf("replay: %.4f allocations per applied record over %d", n, len(j.recs)-warm)
	}
}

// TestEventLogBytesPerDecision pins what the decision log keeps resident
// per logged event at the serving cap: 40,000 decisions of span 2–8,
// each featurized into fresh slices with its action IDs shared from one
// table (as internal/featurize shares a catalog's). Named so the
// un-raced allocation-gate CI step selects it.
//   - open: no decision is rewarded, so every logged event keeps its
//     features and its entry in the event index. The block sizes decide
//     it: a block's unused tail is waste, which a smaller block makes
//     worse. The budget is what a log that kept its callers' slices
//     held, 696.2 bytes, plus the index entry, ≈ 28 bytes at this log
//     size.
//   - trained: every decision is rewarded and trained 256 at a time (the
//     ingestor's batch), so a logged event is its nil slot and nothing
//     else. The budget is the reading, 28.5 bytes, plus a margin.
//   - offline: the offline pipeline's uncapped learner, fed as the
//     pipeline feeds it: 256 decisions ranked, then each rewarded or,
//     one in four, forgotten (a failed recompilation), then trained. A
//     logged event is its nil slot, in a log that never evicts and
//     grows by doubling. The budget is the reading, 16.6 bytes, plus a
//     margin; before Train released on an uncapped log and Forget
//     existed, such an event kept its features and, forgotten, its
//     index entry too.
//   - loaded: the open log is saved, and what its snapshot's events keep
//     once Load restores them into a serving-capped service is
//     measured. A loaded event is stored as a replayed one is, with only
//     its chosen action, so it holds less than an open one. The budget
//     is the reading, 529.0 bytes, plus 3; a loaded event that kept a
//     view of its snapshot line and slices of its own held 1,235.8.
func TestEventLogBytesPerDecision(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes heap accounting")
	}
	for _, c := range []struct {
		name   string
		budget float64
	}{
		{"open", 725},
		{"trained", 30},
		{"offline", 18},
		{"loaded", 532},
	} {
		t.Run(c.name, func(t *testing.T) {
			perEvent, logged := eventLogBytesPerDecision(t, c.name)
			t.Logf("40000 decisions, %d logged: %.1f bytes resident each", logged, perEvent)
			if perEvent > c.budget {
				t.Errorf("the log holds %.1f bytes a decision, budget %v", perEvent, c.budget)
			}
		})
	}
}

// eventLogBytesPerDecision logs TestEventLogBytesPerDecision's 40,000
// decisions into a serving-capped log, rewarding and training them in
// mode "trained", and returns the heap it grew by per logged event. In
// mode "offline" the log is uncapped and the decisions are rewarded or
// forgotten a batch at a time. In mode "loaded" it measures instead the
// heap a Load of the open log's snapshot grows by per loaded event.
func eventLogBytesPerDecision(t *testing.T, mode string) (float64, int) {
	const decisions = 40_000
	var table [256]Action
	for r := range table {
		rule := uint64(r)
		table[r] = Action{ID: fmt.Sprintf("R%03d", r), IDs: []uint64{
			Mix64(0xa1<<32 + rule), Mix64(0xa2<<32 + rule%38), Mix64(0xa3<<32 + rule%4), Mix64(0xa4<<32 + (rule%38)*2 + rule&1),
		}}
	}
	noop := Action{ID: "noop", IDs: []uint64{Mix64(0xa0)}}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	s := New(Config{Seed: 1})
	if mode != "offline" {
		s.SetMaxLog(ServingMaxLog)
	}
	s.w = make([]float64, s.cfg.Dim) // the first Train's weights are not the log's
	var batch []string
	before := heap()
	for i := 0; i < decisions; i++ {
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
			if batch = append(batch, ranked.EventID); len(batch) == 256 || i == decisions-1 {
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
	var snap bytes.Buffer
	if mode == "loaded" {
		if err := s.Save(&snap); err != nil {
			t.Fatal(err)
		}
		s = nil
		before = heap()
		var err error
		if s, err = Load(&snap, 1); err != nil {
			t.Fatal(err)
		}
		s.SetMaxLog(ServingMaxLog)
	}
	after := heap()
	logged := s.LogSize()
	if mode == "offline" && len(s.Events()) != 0 {
		t.Fatalf("%d events still open after every decision was rewarded or forgotten and trained", len(s.Events()))
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(&snap)
	return float64(int64(after)-int64(before)) / float64(logged), logged
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

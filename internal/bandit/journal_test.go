package bandit

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"qoadvisor/internal/walrec"
)

func TestRankRecordRoundTrip(t *testing.T) {
	cases := []walrec.Rank{
		{EventID: "evabc-00000001", Prob: 0.925, CtxIDs: []uint64{1, math.MaxUint64, 0xdeadbeef}, ActIDs: []uint64{42}},
		{EventID: "e", Prob: 1.0 / 3.0, CtxIDs: nil, ActIDs: nil},
	}
	for _, want := range cases {
		p := walrec.AppendRank(nil, want.EventID, want.Prob, want.CtxIDs, want.ActIDs)
		got, err := walrec.DecodeRank(p)
		if err != nil {
			t.Fatalf("DecodeRank: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
	}
	// Truncation fails loudly at every cut point (the CRC layer should
	// catch this first, but the codec must not panic or misread).
	full := walrec.AppendRank(nil, "evx-1", 0.5, []uint64{7, 8}, []uint64{9})
	for cut := 1; cut < len(full); cut++ {
		if _, err := walrec.DecodeRank(full[:cut]); err == nil && cut < len(full) {
			t.Fatalf("truncated rank record at %d decoded without error", cut)
		}
	}
}

func TestRewardBatchRoundTrip(t *testing.T) {
	want := []walrec.RewardEntry{
		{EventID: "ev1", Value: 1.5},
		{EventID: "ev2", Value: -0.25},
		{EventID: "ev3", Value: math.Inf(1)},
	}
	got, err := walrec.DecodeRewardBatch(walrec.EncodeRewardBatch(want))
	if err != nil {
		t.Fatalf("DecodeRewardBatch: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	if _, err := walrec.DecodeRewardBatch(walrec.AppendRank(nil, "x", 1, nil, nil)); err == nil {
		t.Error("reward decoder accepted a rank record")
	}
}

// memJournal is an in-memory Journal for bandit-level tests.
type memJournal struct {
	recs [][]byte
}

func (m *memJournal) Append(p []byte) (uint64, error) {
	m.recs = append(m.recs, append([]byte(nil), p...))
	return uint64(len(m.recs)), nil
}
func (m *memJournal) LastLSN() uint64 { return uint64(len(m.recs)) }

// replayerEvery is NewReplayer at a cadence of n rewards, so a test
// crosses count-based training boundaries with a few dozen rewards.
func replayerEvery(svc *Service, n int) *Replayer {
	r := NewReplayer(svc)
	r.trainEvery = n
	return r
}

// TestReplayRebuildsBitIdenticalModel is the bandit-level determinism
// core: a live service journals its rank decisions; feeding those
// records plus the reward batches through a Replayer into a fresh
// service reproduces the exact weights and open events.
func TestReplayRebuildsBitIdenticalModel(t *testing.T) {
	const trainEvery = 8
	live := New(Config{Dim: 1 << 12, Epsilon: 0.2, LearningRate: 0.1, MaxIPSWeight: 20, Seed: 11})
	j := &memJournal{}
	live.AttachJournal(j)

	ctx := Context{IDs: []uint64{0x1111, 0x2222}}
	actions := []Action{
		{ID: "noop", IDs: []uint64{0xaaaa}},
		{ID: "+R010", IDs: []uint64{0xbbbb, 0xcccc}},
		{ID: "-R042", IDs: []uint64{0xdddd}},
	}

	// Live run: rank, reward in batches (journaled like the ingestor
	// journals them), each reward applied through a live Replayer's
	// Reward — what the serve layer's single worker does. Every 7th
	// event is left unrewarded so open events survive into Save.
	// Live and replay both train through the Replayer, so this test
	// cannot see where its trainEvery boundaries fall;
	// decisions.golden (TestDecisionGolden) pins them.
	lr := replayerEvery(live, trainEvery)
	var batch []walrec.RewardEntry
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		j.Append(walrec.EncodeRewardBatch(batch))
		for _, e := range batch {
			lr.Reward(e.EventID, e.Value)
		}
		batch = nil
	}
	for i := 0; i < 60; i++ {
		r, err := live.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			continue // never rewarded: stays open
		}
		batch = append(batch, walrec.RewardEntry{EventID: r.EventID, Value: 0.5 + 0.25*float64(r.Chosen)})
		if len(batch) == 5 {
			flushBatch()
		}
	}
	flushBatch()
	// Drain-equivalent shutdown flush, journaled as a train mark.
	j.Append(walrec.EncodeTrainMark())
	lr.Mark()
	if st := lr.Stats(); st.Rewards != 52 || st.UnknownRewards != 0 {
		t.Fatalf("live stats = %+v, want 52 rewards applied", st)
	}
	live.SetWALWatermark(j.LastLSN())

	var want bytes.Buffer
	if err := live.Save(&want); err != nil {
		t.Fatal(err)
	}

	// Replay into a fresh service with the same hyperparameters.
	rebuilt := New(Config{Dim: 1 << 12, Epsilon: 0.2, LearningRate: 0.1, MaxIPSWeight: 20, Seed: 99})
	rp := replayerEvery(rebuilt, trainEvery)
	for i, rec := range j.recs {
		if err := rp.Apply(uint64(i+1), rec); err != nil {
			t.Fatalf("Apply record %d: %v", i+1, err)
		}
	}
	rp.Finish()

	var got bytes.Buffer
	if err := rebuilt.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("replayed model differs from live model\nlive:\n%s\nreplayed:\n%s",
			firstLines(want.String(), 6), firstLines(got.String(), 6))
	}
	if st := rp.Stats(); st.Ranks != 60 || st.UnknownRewards != 0 || st.TrainedEvents != lr.Stats().TrainedEvents {
		t.Errorf("replay stats = %+v, live %+v", st, lr.Stats())
	}

	// And the rebuilt service keeps serving: rewards for open events
	// restored by replay still apply.
	evs := rebuilt.Events()
	found := false
	for _, ev := range evs {
		if !ev.Rewarded && !ev.Trained {
			if err := rebuilt.Reward(ev.EventID, 1.0); err != nil {
				t.Fatalf("rewarding replayed open event: %v", err)
			}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no open event survived replay")
	}
}

// TestSnapshotPlusSuffixEquivalence covers the checkpoint boundary: a
// snapshot taken mid-run (with its WAL watermark) plus replay of only
// the journal suffix must reproduce the full-run model — including
// rewards that arrive after the checkpoint for events ranked before it
// (they travel in the snapshot's open-event section). As in
// TestReplayRebuildsBitIdenticalModel, the live side trains through a
// Replayer too; decisions.golden pins the trainEvery boundaries.
func TestSnapshotPlusSuffixEquivalence(t *testing.T) {
	const trainEvery = 4
	live := New(Config{Dim: 1 << 12, Epsilon: 0.2, LearningRate: 0.1, MaxIPSWeight: 20, Seed: 5})
	j := &memJournal{}
	live.AttachJournal(j)

	ctx := Context{IDs: []uint64{0x77}}
	actions := []Action{{IDs: []uint64{0x1}}, {IDs: []uint64{0x2}}}

	rank := func() string {
		r, err := live.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		return r.EventID
	}
	lr := replayerEvery(live, trainEvery)
	rewardNow := func(ids []string, v float64) {
		var batch []walrec.RewardEntry
		for _, id := range ids {
			batch = append(batch, walrec.RewardEntry{EventID: id, Value: v})
		}
		j.Append(walrec.EncodeRewardBatch(batch))
		for _, e := range batch {
			lr.Reward(e.EventID, e.Value)
		}
	}

	var pre []string
	for i := 0; i < 10; i++ {
		pre = append(pre, rank())
	}
	rewardNow(pre[:6], 1.0) // 6 applied: one train at 4, two pending

	// Checkpoint barrier: flush training (journaled as a mark), then
	// snapshot with the covering watermark. pre[6:] are still open and
	// must travel inside the snapshot. The mark starts a new batch, as
	// it does in replay.
	j.Append(walrec.EncodeTrainMark())
	lr.Mark()
	var snap bytes.Buffer
	if err := live.CheckpointTo(&snap); err != nil {
		t.Fatal(err)
	}
	cut := live.WALWatermark()
	if cut != j.LastLSN() {
		t.Fatalf("watermark %d, want journal end %d", cut, j.LastLSN())
	}

	// Post-checkpoint traffic, including rewards for pre-checkpoint
	// events (the straddling case).
	var post []string
	for i := 0; i < 5; i++ {
		post = append(post, rank())
	}
	rewardNow(append([]string{pre[7], pre[9]}, post[:3]...), 0.75)
	j.Append(walrec.EncodeTrainMark())
	lr.Mark()
	if st := lr.Stats(); st.Rewards != 11 || st.UnknownRewards != 0 {
		t.Fatalf("live stats = %+v, want 11 rewards applied", st)
	}
	live.SetWALWatermark(j.LastLSN())

	var want bytes.Buffer
	if err := live.Save(&want); err != nil {
		t.Fatal(err)
	}

	// Recover: load the mid-run snapshot, replay only the suffix.
	restored, err := Load(bytes.NewReader(snap.Bytes()), 123)
	if err != nil {
		t.Fatal(err)
	}
	if restored.WALWatermark() != cut {
		t.Fatalf("restored watermark %d, want %d", restored.WALWatermark(), cut)
	}
	rp := replayerEvery(restored, trainEvery)
	for i, rec := range j.recs {
		if uint64(i+1) <= cut {
			continue
		}
		if err := rp.Apply(uint64(i+1), rec); err != nil {
			t.Fatal(err)
		}
	}
	rp.Finish()
	if st := rp.Stats(); st.Rewards != 5 || st.UnknownRewards != 0 {
		t.Fatalf("suffix replay stats = %+v, want the 5 post-checkpoint rewards applied", st)
	}

	var got bytes.Buffer
	if err := restored.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("snapshot+suffix model differs from full live model\nlive:\n%s\nrecovered:\n%s",
			want.String(), got.String())
	}
}

func firstLines(s string, n int) string {
	out := ""
	for i := 0; i < len(s) && n > 0; i++ {
		out += string(s[i])
		if s[i] == '\n' {
			n--
		}
	}
	return out
}

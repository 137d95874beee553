package bandit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"qoadvisor/internal/walrec"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden and testdata/parent_v3.snap from the current code")

// goldenSpanBits are the span sizes the decision golden draws from: a
// single bit, the benchmark's 2–8, and two long-tail spans that reach
// the featurizer's 60-pair / 40-triple caps.
var goldenSpanBits = []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 40}

// goldenDecision builds decision i's context and actions for a span size
// drawn from goldenSpanBits.
func goldenDecision(seed uint64, i int) (Context, []Action) {
	r := Mix64(seed*MixGamma + uint64(i))
	return spanDecision(r, goldenSpanBits[r%uint64(len(goldenSpanBits))])
}

// spanDecision builds a context and actions in the shapes internal/core
// produces for an n-bit span — n + min(C(n,2),60) + min(C(n,3),40) + 3
// context IDs; a one-ID no-op plus four IDs per span rule — from Mix64 of
// the seeded integer r. IDs are drawn from small pools so weights are
// shared across decisions and training has something to learn.
func spanDecision(r uint64, n int) (Context, []Action) {
	nctx := n + min(n*(n-1)/2, 60) + min(n*(n-1)*(n-2)/6, 40) + 3
	ctx := Context{IDs: make([]uint64, nctx)}
	for k := range ctx.IDs {
		r = Mix64(r + MixGamma)
		ctx.IDs[k] = Mix64(0xc0 + r%4096)
	}
	actions := make([]Action, 0, n+1)
	actions = append(actions, Action{ID: "noop", IDs: []uint64{Mix64(0xa0)}})
	for k := 0; k < n; k++ {
		r = Mix64(r + MixGamma)
		rule := r % 256
		actions = append(actions, Action{
			ID: fmt.Sprintf("R%03d", rule),
			IDs: []uint64{
				Mix64(0xa1<<32 + rule),
				Mix64(0xa2<<32 + rule%38),
				Mix64(0xa3<<32 + rule%4),
				Mix64(0xa4<<32 + (rule%38)*2 + rule&1),
			},
		})
	}
	return ctx, actions
}

func hashRecords(recs [][]byte) string {
	h := sha256.New()
	var n [4]byte
	for _, rec := range recs {
		binary.LittleEndian.PutUint32(n[:], uint32(len(rec)))
		h.Write(n[:])
		h.Write(rec)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashBytes(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// runGoldenDecisions drives the whole decision path on one goroutine —
// rank (uniform, learned and greedy), journaling, reward, Train,
// eviction, two checkpoints, a final Save and a from-scratch replay —
// and returns one "dim=<d> <what> <sha256>" line per artifact.
func runGoldenDecisions(t *testing.T, dim int) []string {
	t.Helper()
	const (
		seed       = 7
		decisions  = 3000
		trainEvery = 64
		rewardLag  = 16
		maxLog     = 512
	)
	cfg := Config{Dim: dim, Epsilon: 0.2, LearningRate: 0.05, MaxIPSWeight: 50, Seed: seed}
	live := New(cfg)
	live.SetMaxLog(maxLog)
	live.nonce = "7e57"
	// Start just below the %08d width so event IDs grow a ninth digit
	// halfway through.
	live.seq = 99_998_500
	j := &memJournal{}
	live.AttachJournal(j)

	var lines []string
	emit := func(what, sum string) { lines = append(lines, fmt.Sprintf("dim=%d %s %s", dim, what, sum)) }

	stream := sha256.New()
	lr := replayerEvery(live, trainEvery)
	var batch []walrec.RewardEntry
	flush := func() {
		if len(batch) == 0 {
			return
		}
		j.Append(walrec.EncodeRewardBatch(batch))
		for _, e := range batch {
			lr.Reward(e.EventID, e.Value)
		}
		batch = batch[:0]
	}
	checkpoint := func(name string) []byte {
		flush()
		j.Append(walrec.EncodeTrainMark())
		lr.Mark()
		var snap bytes.Buffer
		if err := live.CheckpointTo(&snap); err != nil {
			t.Fatal(err)
		}
		emit(name, hashBytes(snap.Bytes()))
		return snap.Bytes()
	}

	var snap2000 []byte
	var cut2000 uint64
	for i := 0; i < decisions; i++ {
		ctx, actions := goldenDecision(seed, i)
		var r Ranked
		var err error
		if i < 500 {
			r, err = live.RankUniform(ctx, actions)
		} else {
			r, err = live.Rank(ctx, actions)
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(stream, "%s %d %v\n", r.EventID, r.Chosen, r.Prob)
		if i%10 == 0 {
			g, err := live.RankGreedy(ctx, actions)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(stream, "greedy %d %v\n", g.Chosen, g.Prob)
		}
		if i%10 != 9 { // 90 % of decisions are rewarded
			v := float64(Mix64(uint64(i)*31+uint64(r.Chosen))%100000) / 49999
			batch = append(batch, walrec.RewardEntry{EventID: r.EventID, Value: v})
		}
		if len(batch) >= rewardLag {
			flush()
		}
		switch i + 1 {
		case 1000:
			checkpoint("snapshot@1000")
		case 2000:
			snap2000 = checkpoint("snapshot@2000")
			cut2000 = live.WALWatermark()
		}
	}
	flush()
	live.SetWALWatermark(j.LastLSN())
	// No training flush before the final Save: rewarded-but-untrained
	// events must appear in it as open "ev … 1 <reward>" lines.
	var final bytes.Buffer
	if err := live.Save(&final); err != nil {
		t.Fatal(err)
	}
	emit("journal", hashRecords(j.recs))
	emit("stream", fmt.Sprintf("%x", stream.Sum(nil)))
	emit("save", hashBytes(final.Bytes()))

	// Replay the whole journal into a fresh service: before Finish it is
	// the live model, byte for byte.
	rebuilt := New(cfg)
	rebuilt.SetMaxLog(maxLog)
	rp := replayerEvery(rebuilt, trainEvery)
	for i, rec := range j.recs {
		if err := rp.Apply(uint64(i+1), rec); err != nil {
			t.Fatalf("replay lsn %d: %v", i+1, err)
		}
	}
	var got bytes.Buffer
	if err := rebuilt.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), final.Bytes()) {
		t.Errorf("dim=%d: replayed model differs from the live Save", dim)
	}
	rp.Finish()
	got.Reset()
	if err := rebuilt.Save(&got); err != nil {
		t.Fatal(err)
	}
	emit("replayed", hashBytes(got.Bytes()))

	// Snapshot + suffix is the same model again.
	restored, err := Load(bytes.NewReader(snap2000), 99)
	if err != nil {
		t.Fatal(err)
	}
	restored.SetMaxLog(maxLog)
	rs := replayerEvery(restored, trainEvery)
	for i, rec := range j.recs {
		if lsn := uint64(i + 1); lsn > cut2000 {
			if err := rs.Apply(lsn, rec); err != nil {
				t.Fatalf("suffix replay lsn %d: %v", lsn, err)
			}
		}
	}
	rs.Finish()
	var suffix bytes.Buffer
	if err := restored.Save(&suffix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(suffix.Bytes(), got.Bytes()) {
		t.Errorf("dim=%d: snapshot@2000 + suffix differs from the full replay", dim)
	}
	return lines
}

// TestDecisionGolden pins every byte the decision path emits — event
// IDs, choices, propensities, journal records, snapshots, trained
// weights — for a power-of-two Dim and one that is not. The golden was
// generated before the decision path was optimized; regenerate it (go
// test -run TestDecisionGolden ./internal/bandit -update) only when a
// change is meant to move one of those bytes.
func TestDecisionGolden(t *testing.T) {
	var out bytes.Buffer
	for _, dim := range []int{1 << 14, 12289} {
		for _, line := range runGoldenDecisions(t, dim) {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "decisions.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("decision path moved:\n--- got\n%s--- want\n%s", out.Bytes(), want)
	}
}

// fixtureService builds the small model testdata/parent_v3.snap was
// saved from: trained weights, open events both unrewarded and
// rewarded-but-untrained, a non-zero watermark.
func fixtureService(t *testing.T) *Service {
	t.Helper()
	s := New(Config{Dim: 1 << 10, Epsilon: 0.15, LearningRate: 0.07, MaxIPSWeight: 30, Seed: 19})
	s.nonce = "f1x7"
	for i := 0; i < 200; i++ {
		ctx, actions := goldenDecision(19, i)
		r, err := s.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 != 3 {
			if err := s.Reward(r.EventID, float64(Mix64(uint64(i))%1000)/333); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 && i < 150 {
			s.Train()
		}
	}
	s.SetWALWatermark(4242)
	return s
}

// TestSnapshotCompatibleWithParent holds snapshot v3 to the bytes the
// pre-optimization encoder wrote, in both directions: the committed
// fixture (written by the parent commit's Save) loads here and re-saves
// to itself, and the same model built here saves to the fixture's bytes
// — so the parent loads what this code writes.
func TestSnapshotCompatibleWithParent(t *testing.T) {
	path := filepath.Join("testdata", "parent_v3.snap")
	var built bytes.Buffer
	if err := fixtureService(t).Save(&built); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, built.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.Bytes(), fixture) {
		t.Error("this code saves the fixture's model to different bytes than the parent did")
	}
	loaded, err := Load(bytes.NewReader(fixture), 1)
	if err != nil {
		t.Fatalf("loading the parent-written snapshot: %v", err)
	}
	var resaved bytes.Buffer
	if err := loaded.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), fixture) {
		t.Error("the parent-written snapshot does not re-save to the same bytes")
	}
}

package audit_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

const (
	asOfSeed       = 42
	asOfTrainEvery = 8
)

// asOfRig is a WAL-backed live server the as-of tests checkpoint
// against, driven over real HTTP so the journal carries exactly what
// production carries.
type asOfRig struct {
	srv *serve.Server
	cl  *client.Client
	j   *wal.WAL
	dir string
}

func newAsOfRig(t *testing.T, segBytes int64) *asOfRig {
	t.Helper()
	dir := t.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Seed: asOfSeed, TrainEvery: asOfTrainEvery, WAL: j})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &asOfRig{srv: srv, cl: client.New(ts.URL), j: j, dir: dir}
}

func (r *asOfRig) rank(t *testing.T, n, salt int) []string {
	t.Helper()
	jobs := make([]api.RankRequest, n)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(uint64(salt)<<32 | uint64(i)),
			Span:         []int{3 + (i+salt)%50, 60 + (i*7+salt)%50, 120 + i%30},
			RowCount:     float64(1000 * (i + 1)),
		}
	}
	resp, err := r.cl.RankBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, n)
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("job %d rejected: %v", i, res.Error)
		}
		ids = append(ids, res.EventID)
	}
	return ids
}

func (r *asOfRig) reward(t *testing.T, ids []string, v float64) {
	t.Helper()
	events := make([]api.RewardEvent, len(ids))
	for i, id := range ids {
		val := v + float64(i)*0.01
		events[i] = api.RewardEvent{EventID: id, Reward: &val}
	}
	resp, err := r.cl.RewardBatch(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Queued != len(ids) {
		t.Fatalf("queued %d of %d rewards: %+v", resp.Queued, len(ids), resp.Rejected)
	}
}

// checkpointCopy checkpoints the server and squirrels the snapshot
// file away, returning the copy's path and the checkpoint watermark.
func (r *asOfRig) checkpointCopy(t *testing.T, name string) (string, uint64) {
	t.Helper()
	snap := filepath.Join(r.dir, "model.snap")
	info, err := r.srv.Checkpoint(snap)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(r.dir, name)
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cp, info.LSN
}

// TestAsOfByteIdentical pins the reconstruction contract through real
// segments: replaying to a checkpoint's LSN from the PREVIOUS
// checkpoint's snapshot must reproduce the later checkpoint's file
// byte for byte — including a reward batch that straddles the first
// checkpoint (events ranked before it, rewarded after, so the open
// events travel via the snapshot and the rewards via the journal).
func TestAsOfByteIdentical(t *testing.T) {
	r := newAsOfRig(t, 1024) // tiny segments: the window spans many files
	cat := rules.NewCatalog()

	// Phase A: decisions and some rewards, then checkpoint 1.
	idsA := r.rank(t, 20, 1)
	r.reward(t, idsA[:10], 0.5)
	if _, err := r.srv.InstallHints([]sis.Hint{
		{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(40), Day: 3},
	}); err != nil {
		t.Fatal(err)
	}
	snap1, w1 := r.checkpointCopy(t, "snap1.copy")

	// Phase B: the straddling batch — rewards for phase-A events land
	// after checkpoint 1 — plus fresh decisions, rewards, and a hint
	// rollover. Then checkpoint 2: the reconstruction target.
	r.reward(t, idsA[10:], 0.9)
	idsB := r.rank(t, 17, 2)
	r.reward(t, idsB[:13], 0.25)
	if _, err := r.srv.InstallHints([]sis.Hint{
		{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(41), Day: 4},
		{TemplateHash: 0xdef456, TemplateID: "T0099", Flip: cat.FlipFor(42), Day: 4},
	}); err != nil {
		t.Fatal(err)
	}
	// The target checkpoint runs the same barrier as Checkpoint but
	// truncates nothing (BootstrapSnapshot), so the journal keeps the
	// window (w1, l] the reconstruction needs — time travel only works
	// over history that compaction has not eaten.
	var snap2buf bytes.Buffer
	l, err := r.srv.BootstrapSnapshot(&snap2buf)
	if err != nil {
		t.Fatal(err)
	}
	want := snap2buf.Bytes()
	if l <= w1 {
		t.Fatalf("checkpoint LSNs did not advance: w1=%d l=%d", w1, l)
	}
	snap2 := filepath.Join(r.dir, "snap2.copy")
	if err := os.WriteFile(snap2, want, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase C: the journal moves on past L.
	idsC := r.rank(t, 9, 3)
	r.reward(t, idsC, 0.7)
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}

	eng, err := audit.Open(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.AsOf(l, audit.AsOfOptions{
		SnapshotPath: snap1,
		TrainEvery:   asOfTrainEvery,
		Seed:         asOfSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotSeeded || res.FromLSN != w1 {
		t.Fatalf("reconstruction did not seed from snapshot 1: seeded=%v from=%d want=%d", res.SnapshotSeeded, res.FromLSN, w1)
	}
	if !bytes.Equal(res.Snapshot, want) {
		t.Fatalf("as-of(%d) reconstruction differs from the live checkpoint at %d:\n--- as-of (%d bytes)\n%s\n--- checkpoint (%d bytes)\n%s",
			l, l, len(res.Snapshot), firstDiff(res.Snapshot, want), len(want), firstDiff(want, res.Snapshot))
	}
	if res.Hints == nil || res.HintGen == 0 {
		t.Errorf("as-of window lost the hint rollover: gen=%d hints=%d", res.HintGen, len(res.Hints))
	}

	// A later snapshot must never seed an earlier reconstruction.
	res2, err := eng.AsOf(w1, audit.AsOfOptions{
		SnapshotPath: snap2,
		TrainEvery:   asOfTrainEvery,
		Seed:         asOfSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.SnapshotSeeded {
		t.Error("reconstruction at an LSN below the snapshot's watermark must not seed from it")
	}
}

// firstDiff excerpts the first divergent region for failure output.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hi := i + 40
			if hi > len(a) {
				hi = len(a)
			}
			return fmt.Sprintf("(diff at byte %d) ...%q...", i, a[lo:hi])
		}
	}
	return fmt.Sprintf("(equal prefix, lengths %d vs %d)", len(a), len(b))
}

// buildBigJournal writes a synthetic multi-segment journal: nRanks
// rank records with periodic reward batches and train marks, plus
// hint-rollover records mentioning wantTemplate only inside a couple
// of segments (and a decoy template elsewhere). Returns the hash the
// skip test queries for.
func buildBigJournal(tb testing.TB, dir string, nRanks int, segBytes int64) (wantTemplate uint64) {
	tb.Helper()
	// ModeSync with a periodic Commit: segment rolls happen on the
	// committer goroutine, so an uncommitted Append firehose would
	// outrun them and pile everything into one oversized segment.
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: segBytes})
	if err != nil {
		tb.Fatal(err)
	}
	commitEvery := func(lsn uint64) {
		if lsn%256 == 0 {
			if err := j.Commit(lsn); err != nil {
				tb.Fatal(err)
			}
		}
	}
	wantTemplate = 0xfeedface
	const decoy = 0x0ddba11
	var pending []walrec.RewardEntry
	for i := 0; i < nRanks; i++ {
		ev := fmt.Sprintf("ev%08d", i)
		ctx := []uint64{uint64(i) * 3, uint64(i)*3 + 1, uint64(i)*3 + 2}
		act := []uint64{uint64(i % 97), uint64(i%89) + 1000}
		lsn, err := j.Append(walrec.EncodeRank(ev, 0.5, ctx, act))
		if err != nil {
			tb.Fatal(err)
		}
		commitEvery(lsn)
		pending = append(pending, walrec.RewardEntry{EventID: ev, Value: float64(i%10) / 10})
		if len(pending) == 64 {
			if _, err := j.Append(walrec.EncodeRewardBatch(pending)); err != nil {
				tb.Fatal(err)
			}
			pending = pending[:0]
		}
		if i%4096 == 4095 {
			if _, err := j.Append(walrec.EncodeTrainMark()); err != nil {
				tb.Fatal(err)
			}
		}
		// The wanted template's rollovers cluster at ~1/4 and ~3/4 of
		// the journal; decoys appear elsewhere so the key filter (not
		// just the tag filter) has segments to prune.
		switch {
		case i == nRanks/4 || i == 3*nRanks/4:
			hints := []walrec.Hint{{TemplateHash: wantTemplate, TemplateID: "Twant", Flip: "-R040", Day: i / 1000}}
			if _, err := j.Append(walrec.EncodeHintRollover(uint64(i), hints)); err != nil {
				tb.Fatal(err)
			}
		case i%(nRanks/8) == nRanks/16:
			hints := []walrec.Hint{{TemplateHash: decoy, TemplateID: "Tdecoy", Flip: "-R041", Day: i / 1000}}
			if _, err := j.Append(walrec.EncodeHintRollover(uint64(i), hints)); err != nil {
				tb.Fatal(err)
			}
		}
	}
	lsn, err := j.Append(walrec.EncodeRewardBatch(pending))
	if err != nil {
		tb.Fatal(err)
	}
	if err := j.Commit(lsn); err != nil {
		tb.Fatal(err)
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	return wantTemplate
}

// TestIndexedTemplateQuerySkipsSegments is the acceptance pin for the
// planner: over a ≥100k-record multi-segment journal, a
// template-filtered query must skip the non-matching segments — proved
// by the iterator's own scan counters, not timing — while still
// finding every matching record, streaming.
func TestIndexedTemplateQuerySkipsSegments(t *testing.T) {
	dir := t.TempDir()
	const nRanks = 100_000
	tmpl := buildBigJournal(t, dir, nRanks, 512<<10)

	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 8 {
		t.Fatalf("fixture built only %d segments; need a multi-segment journal", len(segs))
	}

	eng, err := audit.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Key-filtered listing: "rollover records that reference this
	// template". The two matches live in (at most) two segments; the
	// bloom key filter must prune the decoy-rollover segments that the
	// tag filter alone would have to scan.
	it, err := eng.Run(audit.Query{
		Tags:     []byte{walrec.TagHintRollover},
		Template: tmpl, HasTemplate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		matches++
	}
	it.Close()
	if matches != 2 {
		t.Fatalf("key-filtered query found %d rollovers, want 2", matches)
	}
	st := it.Stats()
	if st.SegmentsTotal != int64(len(segs)) {
		t.Fatalf("stats saw %d segments, dir has %d", st.SegmentsTotal, len(segs))
	}
	// The two matching rollovers live in (at most) two segments; allow
	// the active tail segment too. Everything else must be pruned.
	if st.SegmentsScanned > 3 {
		t.Errorf("scanned %d segments for a 2-segment answer (skipped %d of %d)",
			st.SegmentsScanned, st.SegmentsSkipped, st.SegmentsTotal)
	}
	if st.SegmentsSkipped < int64(len(segs))-3 {
		t.Errorf("skipped only %d of %d segments", st.SegmentsSkipped, st.SegmentsTotal)
	}
	if st.SkippedByKey == 0 {
		t.Error("decoy-rollover segments must be pruned by the key filter, not scanned")
	}
	// Streaming proof: the records read from disk are bounded by the
	// scanned segments, nowhere near the journal's total.
	total := int64(nRanks) + int64(nRanks)/64 + int64(nRanks)/4096 + 16
	if st.RecordsScanned >= total/2 {
		t.Errorf("read %d of ~%d records — the scan did not stay local to matching segments", st.RecordsScanned, total)
	}

	// The canned lineage query deliberately drops the key filter —
	// a rollover WITHOUT the hash is what proves removal, and the bloom
	// would prune exactly those records — so it sees all 10 rollovers
	// and extracts the full flap history: two add/remove cycles.
	th, err := eng.Template(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if th.Rollovers != 10 || len(th.Events) != 4 {
		t.Fatalf("template history saw %d rollovers, %d events; want 10 and 4", th.Rollovers, len(th.Events))
	}
	for i, want := range []string{"hint", "hint_removed", "hint", "hint_removed"} {
		if th.Events[i].Kind != want {
			t.Errorf("event %d kind = %q, want %q", i, th.Events[i].Kind, want)
		}
	}
	if th.Scan.SkippedByTag == 0 {
		t.Error("rank-only segments must still be pruned by the tag filter")
	}

	// Second engine over the same dir: sidecars now load from disk
	// (not rebuilt), and the answer is identical.
	eng2, err := audit.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	th2, err := eng2.Template(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	// Sealed segments load from disk; only the active tail segment's
	// sidecar is built in memory (it is never persisted).
	if th2.Scan.SidecarsLoaded == 0 || th2.Scan.SidecarsBuilt > 1 || th2.Scan.SidecarsRebuilt > 0 {
		t.Errorf("second engine rebuilt instead of loading sidecars: loaded=%d built=%d rebuilt=%d",
			th2.Scan.SidecarsLoaded, th2.Scan.SidecarsBuilt, th2.Scan.SidecarsRebuilt)
	}
	if len(th2.Events) != len(th.Events) {
		t.Errorf("answers diverge across sidecar load: %d vs %d events", len(th2.Events), len(th.Events))
	}
}

// TestSidecarNeverTrusted pins the sidecar validation satellite:
// corrupt, stale, and deleted .idx files are all detected and rebuilt;
// answers never change.
func TestSidecarNeverTrusted(t *testing.T) {
	dir := t.TempDir()
	tmpl := buildBigJournal(t, dir, 4_000, 32<<10)
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want >=4 segments, got %d", len(segs))
	}

	reference := func(e *audit.Engine) *audit.TemplateHistory {
		th, err := e.Template(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	eng, err := audit.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := reference(eng) // builds sidecars on disk
	if want.Rollovers != 10 {
		t.Fatalf("fixture rollovers = %d, want 10", want.Rollovers)
	}
	idxCount := 0
	for _, s := range segs[:len(segs)-1] {
		if _, err := os.Stat(wal.SidecarPath(s.Path)); err == nil {
			idxCount++
		}
	}
	if idxCount == 0 {
		t.Fatal("first query left no sidecar files on disk")
	}

	t.Run("corrupt idx rebuilt", func(t *testing.T) {
		path := wal.SidecarPath(segs[0].Path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, _ := audit.Open(dir)
		got := reference(e)
		if got.Scan.SidecarsRebuilt == 0 {
			t.Error("corrupt sidecar was not detected and rebuilt")
		}
		if len(got.Events) != len(want.Events) {
			t.Errorf("corrupt sidecar changed the answer: %d vs %d events", len(got.Events), len(want.Events))
		}
	})

	t.Run("stale idx (wrong segment identity) rebuilt", func(t *testing.T) {
		// A sidecar copied from another segment is internally valid but
		// identifies the wrong source: must be rejected by identity, or
		// by source length when identities collide.
		src, err := os.ReadFile(wal.SidecarPath(segs[1].Path))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(wal.SidecarPath(segs[2].Path), src, 0o644); err != nil {
			t.Fatal(err)
		}
		e, _ := audit.Open(dir)
		got := reference(e)
		if got.Scan.SidecarsRebuilt == 0 {
			t.Error("mis-identified sidecar was not rebuilt")
		}
		if len(got.Events) != len(want.Events) {
			t.Errorf("stale sidecar changed the answer: %d vs %d events", len(got.Events), len(want.Events))
		}
	})

	t.Run("deleted idx rebuilt", func(t *testing.T) {
		for _, s := range segs {
			os.Remove(wal.SidecarPath(s.Path))
		}
		e, _ := audit.Open(dir)
		got := reference(e)
		if got.Scan.SidecarsBuilt == 0 {
			t.Error("deleted sidecars were not rebuilt")
		}
		if got.Scan.SidecarsLoaded != 0 {
			t.Error("loaded a sidecar that does not exist")
		}
		if len(got.Events) != len(want.Events) {
			t.Errorf("rebuild changed the answer: %d vs %d events", len(got.Events), len(want.Events))
		}
	})

	t.Run("grown segment re-indexed in memory", func(t *testing.T) {
		e, _ := audit.Open(dir)
		before := reference(e)
		// The journal grows: reopen and append another matching rollover
		// into the active segment.
		j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 32 << 10})
		if err != nil {
			t.Fatal(err)
		}
		lsn, err := j.Append(walrec.EncodeHintRollover(999, []walrec.Hint{
			{TemplateHash: tmpl, TemplateID: "Twant", Flip: "-R042", Day: 9},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after := reference(e) // same engine: cached sidecars must invalidate
		if after.Rollovers != before.Rollovers+1 {
			t.Errorf("grown segment not re-read: %d rollovers before, %d after", before.Rollovers, after.Rollovers)
		}
	})
}

// TestTraceAnswersWhy pins the decision-trace canned query on a live
// journal: the rank, its rewards, the absorbing train mark, and a
// bounded lineage.
func TestTraceAnswersWhy(t *testing.T) {
	r := newAsOfRig(t, 4096)
	ids := r.rank(t, 24, 7)
	r.reward(t, ids, 0.6)
	// Drain journals a train mark after the rewards. (A checkpoint
	// would too, but it also compacts the segments holding the rank
	// records — history a trace needs.)
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}

	eng, err := audit.Open(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Trace(ids[5])
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rank == nil {
		t.Fatalf("trace found no rank record for %s", ids[5])
	}
	if tr.Rank.EventID != ids[5] {
		t.Fatalf("trace resolved the wrong event: %s", tr.Rank.EventID)
	}
	if len(tr.Rewards) != 1 {
		t.Fatalf("trace found %d rewards, want 1", len(tr.Rewards))
	}
	if tr.TrainedAtLSN == 0 || tr.TrainedAtLSN <= tr.Rewards[0].LSN {
		t.Errorf("training boundary %d does not follow reward at %d", tr.TrainedAtLSN, tr.Rewards[0].LSN)
	}

	missing, err := eng.Trace("ev-no-such-event")
	if err != nil {
		t.Fatal(err)
	}
	if missing.Rank != nil || len(missing.Rewards) != 0 {
		t.Error("unknown event produced a non-empty trace")
	}
}

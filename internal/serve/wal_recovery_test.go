package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// walTestRig is a WAL-backed server driven over real HTTP, plus the
// journal and snapshot paths crash-recovery tests poke at.
type walTestRig struct {
	srv  *Server
	ts   *httptest.Server
	cl   *client.Client
	j    *wal.WAL
	dir  string
	snap string
}

func newWALRig(t *testing.T, segBytes int64) *walTestRig {
	t.Helper()
	return newWALRigConfig(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: segBytes}, Config{Seed: 42})
}

// newWALRigConfig is newWALRig on a journal opened with opts, serving
// cfg with that journal as cfg.WAL.
func newWALRigConfig(t *testing.T, opts wal.Options, cfg Config) *walTestRig {
	t.Helper()
	j := nodetest.Journal(t, opts)
	cfg.WAL = j
	srv := New(cfg)
	ts, cl := nodetest.Serve(t, srv)
	return &walTestRig{srv: srv, ts: ts, cl: cl, j: j, dir: j.Dir(), snap: filepath.Join(j.Dir(), "model.snap")}
}

// captureLive drains the pipeline, syncs the journal, and returns the
// live model's persisted form with its watermark at the journal end —
// the reference a crash recovery must reproduce byte for byte.
func (r *walTestRig) captureLive(t *testing.T) []byte {
	t.Helper()
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	r.srv.Bandit().SetWALWatermark(r.j.LastLSN())
	var buf bytes.Buffer
	if err := r.srv.Bandit().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recoverBytes rebuilds a model from the rig's snapshot + journal
// directory (the crashed-process view) and returns its persisted form.
func (r *walTestRig) recoverBytes(t *testing.T, seed int64) ([]byte, RecoverResult) {
	t.Helper()
	rec, err := Recover(wal.DirSource{Dir: r.dir}, r.snap, 0, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Service.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rec
}

// restart is a crashed primary's reboot: it syncs the rig's journal,
// copies its directory as it stands once compaction's unlinks are done
// and starts a primary on the copy through Open, leaving the live rig
// untouched.
func (r *walTestRig) restart(t *testing.T, cfg Config) (*Server, RecoverResult) {
	t.Helper()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	nodetest.WaitReclaimed(t, r.j)
	dir := t.TempDir()
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(r.dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.WAL = nodetest.Journal(t, wal.Options{Dir: dir, Mode: wal.ModeSync})
	srv, rec, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, rec
}

// TestCrashRecoveryEquivalence is the acceptance core: a model rebuilt
// from snapshot + WAL suffix must be byte-identical to the live
// model's Save output, through the real HTTP serving path — including
// rewards that straddle the checkpoint (ranked before it, rewarded
// after) and events that were never rewarded at all.
func TestCrashRecoveryEquivalence(t *testing.T) {
	r := newWALRig(t, 2048)

	// Phase 1: traffic, partially rewarded.
	ids1 := nodetest.Rank(t, r.cl, 60, 1)
	nodetest.Reward(t, r.cl, ids1[:20], 1.0)
	nodetest.Reward(t, r.cl, ids1[20:40], 0.5)

	// Mid-run checkpoint: quiesce, train-flush, snapshot with
	// watermark, compact covered segments.
	info, err := r.srv.Checkpoint(r.snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.LSN == 0 || info.Bytes == 0 {
		t.Fatalf("checkpoint info = %+v", info)
	}
	if info.SegmentsRemoved == 0 {
		t.Errorf("no segments compacted at 2 KiB segment size (info %+v, wal %+v)", info, r.j.Stats())
	}

	// Phase 2: more traffic, including rewards for phase-1 events that
	// were open at checkpoint time (they travel in the snapshot). One
	// batch of more than bandit.DefaultTrainEvery rewards puts a
	// count-based training pass inside the replayed suffix.
	ids2 := nodetest.Rank(t, r.cl, 300, 2)
	nodetest.Reward(t, r.cl, append(append([]string{}, ids1[40:55]...), ids2[:285]...), 0.75)

	want := r.captureLive(t)

	// "Crash": nothing is closed gracefully; recovery reads the
	// snapshot and journal exactly as a restarted process would.
	got, rec := r.recoverBytes(t, 777)
	// Whether any covered record survives compaction depends on when the
	// committer rolled the segment, so the check is the replay's start,
	// not a nonzero skip count.
	if !rec.SnapshotLoaded || rec.FromLSN != info.LSN || rec.Journal.First != info.LSN+1 || rec.Journal.Records == 0 {
		t.Fatalf("recovery did not use snapshot + suffix: %+v", rec)
	}
	if rec.Journal.Truncated {
		t.Fatalf("clean journal reported truncated: %v", rec.Journal.TailError)
	}
	// Every train mark is a run, and so is Recover's tail flush: a run
	// beyond those is a count-based pass the replay crossed.
	if rec.Replay.TrainRuns <= rec.Replay.TrainMarks+1 {
		t.Fatalf("replay ran %d training passes for %d train marks: no count-based boundary in the suffix", rec.Replay.TrainRuns, rec.Replay.TrainMarks)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered model differs from live model\nlive %d bytes, recovered %d bytes\nlive head:\n%s\nrecovered head:\n%s",
			len(want), len(got), head(want), head(got))
	}

	// Determinism: a second recovery from the same state is identical.
	got2, _ := r.recoverBytes(t, 31337)
	if !bytes.Equal(got, got2) {
		t.Fatal("two recoveries from identical state diverged")
	}

	// The recovered model still serves: an event left open across the
	// crash accepts its reward.
	openID := ids1[59] // never rewarded
	if !rec.Service.HasEvent(openID) {
		t.Fatalf("open event %s lost in recovery", openID)
	}
	if err := rec.Service.Reward(openID, 1.25); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryFromAsOfSnapshot: a model reconstructed as of the
// journal's end and saved (what `qoserved audit asof -audit-out` writes)
// boots a node. serve.Open over it and the same journal, after more
// records were appended, replays exactly the later ones: the model it
// serves Saves to the bytes Recover from scratch over the whole journal
// does.
func TestCrashRecoveryFromAsOfSnapshot(t *testing.T) {
	r := newWALRig(t, 1<<20)
	ids1 := nodetest.Rank(t, r.cl, 60, 1)
	nodetest.Reward(t, r.cl, ids1[:30], 1.0)
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	end := r.j.LastLSN()
	asof, err := RecoverAsOf(wal.DirSource{Dir: r.dir}, "", end)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := asof.Service.Save(&buf); err != nil {
		t.Fatal(err)
	}
	asofPath := filepath.Join(t.TempDir(), "asof.snap")
	if err := os.WriteFile(asofPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Records the as-of model has not seen: new ranks, and rewards for
	// events it holds open as well as for the new ones.
	ids2 := nodetest.Rank(t, r.cl, 40, 2)
	nodetest.Reward(t, r.cl, append(append([]string{}, ids1[30:45]...), ids2[:30]...), 0.5)
	r.srv.Ingestor().Drain()

	srv, rec := r.restart(t, Config{Seed: 42, SnapshotPath: asofPath})
	if !rec.SnapshotLoaded || rec.FromLSN != end || rec.Journal.Records == 0 {
		t.Fatalf("Open did not boot from the as-of model plus the later records: %+v", rec)
	}
	srv.Ingestor().Drain()
	if err := srv.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Bandit().SetWALWatermark(srv.wal.LastLSN())
	var got bytes.Buffer
	if err := srv.Bandit().Save(&got); err != nil {
		t.Fatal(err)
	}
	scratch, err := Recover(wal.DirSource{Dir: srv.wal.Dir()}, "", 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := scratch.Service.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("a node booted from the as-of model differs from a recovery from scratch\nbooted head:\n%s\nscratch head:\n%s",
			head(got.Bytes()), head(want.Bytes()))
	}
}

// TestSnapshotGETIsRecoverySeed: on a journaled primary, the body of
// GET /v2/model/snapshot taken after post-checkpoint traffic seeds
// Recover over the journal to the live model's bytes. Stamped with the
// last checkpoint's watermark, replay would apply that traffic twice.
func TestSnapshotGETIsRecoverySeed(t *testing.T) {
	r := newWALRig(t, 1<<20)
	ids1 := nodetest.Rank(t, r.cl, 60, 1)
	nodetest.Reward(t, r.cl, ids1[:30], 1.0)
	info, err := r.srv.Checkpoint(r.snap)
	if err != nil {
		t.Fatal(err)
	}
	ids2 := nodetest.Rank(t, r.cl, 40, 2)
	nodetest.Reward(t, r.cl, append(append([]string{}, ids1[30:45]...), ids2[:25]...), 0.5)

	resp := getURL(t, r.ts.URL+api.RouteV2Snapshot)
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", api.RouteV2Snapshot, resp.StatusCode, err)
	}
	seed := filepath.Join(t.TempDir(), "get.snap")
	if err := os.WriteFile(seed, got, 0o644); err != nil {
		t.Fatal(err)
	}
	want := r.captureLive(t)

	rec, err := Recover(wal.DirSource{Dir: r.dir}, seed, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.SnapshotLoaded || rec.FromLSN <= info.LSN {
		t.Errorf("GET snapshot covers LSN %d, want past the checkpoint's %d (%+v)", rec.FromLSN, info.LSN, rec)
	}
	var recovered bytes.Buffer
	if err := rec.Service.Save(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, recovered.Bytes()) {
		t.Fatalf("Recover(journal, GET snapshot) differs from the live model\nlive head:\n%s\nrecovered head:\n%s",
			head(want), head(recovered.Bytes()))
	}
}

// TestUniformRankRecovers covers a -uniform primary: every bandit-path
// /v2/rank decision is logged at probability 1/|actions|, and replaying
// its journal rebuilds the live model byte for byte.
func TestUniformRankRecovers(t *testing.T) {
	r := newWALRigConfig(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1 << 20}, Config{Seed: 42, Uniform: true})
	cat := rules.NewCatalog()
	jobs := make([]api.RankRequest, 48)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(i + 1),
			Span:         []int{3 + i%50, 60 + (i*7)%50, 120 + i%30, 200 + i%4}[:2+i%3],
			RowCount:     float64(1000 * (i + 1)),
		}
	}
	resp, err := r.cl.RankBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(jobs))
	for i, res := range resp.Results {
		if res.Error != nil || res.Source != api.SourceBandit {
			t.Fatalf("job %d: %+v, want a bandit-path decision", i, res)
		}
		var span rules.Bitset
		for _, b := range jobs[i].Span {
			span.Set(b)
		}
		if want := 1 / float64(len(featurize.Actions(cat, span))); res.Prob != want {
			t.Errorf("job %d: prob %v, want uniform %v", i, res.Prob, want)
		}
		ids[i] = res.EventID
	}
	nodetest.Reward(t, r.cl, ids[:40], 0.5)

	want := r.captureLive(t)
	got, _ := r.recoverBytes(t, 7)
	if !bytes.Equal(want, got) {
		t.Fatalf("recovered -uniform model differs from the live model\nlive head:\n%s\nrecovered head:\n%s", head(want), head(got))
	}
}

// TestReplayIgnoresSeed is why follow, replay and audit take no -seed:
// a from-scratch journal replay never draws from the rng the seed feeds,
// so two seeds rebuild the live model's bytes.
func TestReplayIgnoresSeed(t *testing.T) {
	r := newWALRig(t, 1<<20)
	ids := nodetest.Rank(t, r.cl, 40, 3)
	nodetest.Reward(t, r.cl, ids[:30], 0.8)
	want := r.captureLive(t)
	for _, seed := range []int64{1, 2} {
		got, rec := r.recoverBytes(t, seed) // no checkpoint was taken: a fresh learner from this seed
		if rec.SnapshotLoaded {
			t.Fatal("replay started from a snapshot, not from the seed")
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("replay under seed %d differs from the live model (seed 42)", seed)
		}
	}
}

// TestCrashRecoveryTornTail kills the journal mid-record — the
// signature of a crash during an append — and requires recovery to
// skip the torn tail cleanly, reproducing the pre-tail state exactly.
func TestCrashRecoveryTornTail(t *testing.T) {
	r := newWALRig(t, 1<<20) // one segment: the torn record is in it

	ids := nodetest.Rank(t, r.cl, 30, 9)
	nodetest.Reward(t, r.cl, ids[:12], 1.0)
	if _, err := r.srv.Checkpoint(r.snap); err != nil {
		t.Fatal(err)
	}
	nodetest.Reward(t, r.cl, ids[12:20], 0.5)

	// Reference point: everything up to here is durable and captured.
	want := r.captureLive(t)
	segs, err := filepath.Glob(filepath.Join(r.dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	lastSeg := segs[len(segs)-1]
	fi, err := os.Stat(lastSeg)
	if err != nil {
		t.Fatal(err)
	}
	sizeAtCapture := fi.Size()

	// One more durable reward batch after the capture...
	nodetest.Reward(t, r.cl, ids[20:25], 0.25)
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	// ...then tear it: cut the file a few bytes into the record that
	// follows the captured state, as a crash mid-write would.
	if err := os.Truncate(lastSeg, sizeAtCapture+5); err != nil {
		t.Fatal(err)
	}

	got, rec := r.recoverBytes(t, 5)
	if !rec.Journal.Truncated {
		t.Fatal("torn tail not reported")
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("recovery from torn tail differs from pre-tail state\nwant head:\n%s\ngot head:\n%s",
			head(want), head(got))
	}

	// A server restarted on the damaged directory opens cleanly (Open
	// truncates the tail) and keeps journaling from the valid end.
	lastGood := rec.Service.WALWatermark()
	j2 := nodetest.Journal(t, wal.Options{Dir: r.dir, Mode: wal.ModeSync})
	if j2.LastLSN() != lastGood {
		t.Fatalf("reopened journal at LSN %d, recovery ended at %d", j2.LastLSN(), lastGood)
	}
	srv2, rec2, err := Open(Config{Seed: 7, WAL: j2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !rec2.SnapshotLoaded || rec2.Journal.Truncated {
		t.Fatalf("restart did not resume from the snapshot over the cut journal: %+v", rec2)
	}
	resp, err := srv2.Rank(api.RankRequest{TemplateHash: 99, Span: []int{5, 80}})
	if err != nil || resp.EventID == "" {
		t.Fatalf("recovered server cannot rank: %+v %v", resp, err)
	}
	if n, err := srv2.Ingestor().EnqueueBatch([]walrec.RewardEntry{{EventID: resp.EventID, Value: 1.0}}); n != 1 || err != nil {
		t.Fatalf("recovered server cannot ingest rewards: %d accepted, %v", n, err)
	}
	srv2.Ingestor().Drain()
}

// TestCheckpointCompactsAndRestartsFromSuffix covers the compactor
// contract end to end: after a checkpoint truncates covered segments,
// a recovery that can no longer see the old records still reproduces
// the live model (the snapshot carries everything below the
// watermark).
func TestCheckpointCompactsAndRestartsFromSuffix(t *testing.T) {
	r := newWALRig(t, 1024)

	for round := 0; round < 3; round++ {
		ids := nodetest.Rank(t, r.cl, 25, 10+round)
		nodetest.Reward(t, r.cl, ids[:20], 0.6)
		if _, err := r.srv.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
	}
	st := r.j.Stats()
	if st.TruncatedSegs == 0 {
		t.Fatalf("no compaction after 3 checkpoints at 1 KiB segments: %+v", st)
	}
	// Window, not Stats.FirstLSN: that reads 0 whenever compaction emptied
	// the retained window (the active segment rolled on the record before
	// the checkpoint), which is compaction at its most thorough.
	first, _ := r.j.Window()
	if first <= 1 {
		t.Fatalf("journal still starts at LSN %d after compaction", first)
	}

	ids := nodetest.Rank(t, r.cl, 10, 99)
	nodetest.Reward(t, r.cl, ids[:5], 0.9)
	want := r.captureLive(t)
	got, rec := r.recoverBytes(t, 1)
	if !bytes.Equal(want, got) {
		t.Fatal("recovery after compaction differs from live model")
	}
	if rec.Journal.Skipped != 0 && rec.FromLSN < first-1 {
		t.Fatalf("replay started below the retained window: from %d, first retained %d", rec.FromLSN, first)
	}
}

// TestQuiesceFencesIntake pins the checkpoint barrier semantics: while
// quiesced, new reward batches block (rather than slipping past the
// snapshot's watermark) and resume after release.
func TestQuiesceFencesIntake(t *testing.T) {
	svc := bandit.New(bandit.DefaultConfig(3))
	in := newIngestor(svc, nil, &stageHists{})
	defer in.Close()
	ids := rankEvents(t, svc, 2)

	release := in.Quiesce()
	done := make(chan bool, 1)
	go func() {
		n, err := in.EnqueueBatch([]walrec.RewardEntry{{EventID: ids[0], Value: 1.0}})
		done <- n == 1 && err == nil
	}()
	select {
	case <-done:
		t.Fatal("EnqueueBatch completed while quiesced")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("EnqueueBatch failed after release")
		}
	case <-time.After(time.Second):
		t.Fatal("EnqueueBatch still blocked after release")
	}
	in.Drain()
	if st := in.Stats(); st.Applied != 1 {
		t.Fatalf("Applied = %d, want 1", st.Applied)
	}
}

func head(b []byte) string {
	const n = 400
	if len(b) < n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

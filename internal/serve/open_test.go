package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/wal"
)

// TestOpenServesRecoveredModel: recovered durable state wins over the
// caller's model (Config.Bandit); with nothing recovered
// the caller's model is the one served.
func TestOpenServesRecoveredModel(t *testing.T) {
	r := newWALRig(t, 1<<20)
	ids := nodetest.Rank(t, r.cl, 20, 1)
	nodetest.Reward(t, r.cl, ids[:10], 0.7)
	if _, err := r.srv.Checkpoint(r.snap); err != nil {
		t.Fatal(err)
	}
	bootstrap := bandit.New(bandit.DefaultConfig(5))
	srv, rec := r.restart(t, Config{Seed: 42, Bandit: bootstrap})
	if !rec.Recovered() || !rec.SnapshotLoaded {
		t.Fatalf("restart recovered nothing: %+v", rec)
	}
	if srv.Bandit() != rec.Service || srv.Bandit() == bootstrap {
		t.Fatal("restart serves the caller's model over the recovered one")
	}
	if !srv.Bandit().HasEvent(ids[15]) {
		t.Fatalf("open event %s lost across the restart", ids[15])
	}

	// A first boot: an empty journal directory recovers nothing.
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync})
	fresh, rec, err := Open(Config{Seed: 42, WAL: j, Bandit: bootstrap})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if rec.Recovered() || fresh.Bandit() != bootstrap {
		t.Fatalf("first boot did not serve the caller's model (recovered %v)", rec.Recovered())
	}
	if want := filepath.Join(j.Dir(), SnapshotFile); fresh.SnapshotPath() != want {
		t.Fatalf("snapshot path %q, want the default %q", fresh.SnapshotPath(), want)
	}
	if _, err := os.Stat(fresh.SnapshotPath()); err != nil {
		t.Fatalf("no initial checkpoint: %v", err)
	}
}

// TestOpenRestoresEmptyRollover: a journaled rollover to an EMPTY table
// is a retirement, so a restart serves no hints at that rollover's
// generation rather than the table before it or generation 0.
func TestOpenRestoresEmptyRollover(t *testing.T) {
	r := newWALRig(t, 1<<20)
	hints := testHints(rules.NewCatalog(), 4, 3)
	if _, err := r.srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}
	if gen, err := r.srv.InstallHints(nil); err != nil || gen != 2 {
		t.Fatalf("empty rollover: generation %d, %v", gen, err)
	}
	srv, rec := r.restart(t, Config{Seed: 42})
	if rec.HintRollovers != 2 || len(rec.Hints) != 0 {
		t.Fatalf("recovered %d rollovers, %d hints; want 2, 0", rec.HintRollovers, len(rec.Hints))
	}
	if srv.Cache().Size() != 0 || srv.Cache().Generation() != 2 {
		t.Fatalf("restart serves %d hints at generation %d, want 0 at 2", srv.Cache().Size(), srv.Cache().Generation())
	}
	resp, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(hints[0].TemplateHash), Span: []int{50}})
	if err != nil || resp.Source != api.SourceBandit || resp.Generation != 2 {
		t.Fatalf("retired template ranked %+v, %v; want the bandit path at generation 2", resp, err)
	}
}

// TestOpenQuarantineSurvivesCompaction: the first restart's initial
// checkpoint compacts the segment holding the original quarantine
// record, so a second restart finds the table only in the copy that
// checkpoint re-journaled above its watermark.
func TestOpenQuarantineSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	const held = 0xabc123
	boot := func() (*Server, RecoverResult, *wal.WAL) {
		t.Helper()
		j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		srv, rec, err := Open(Config{Seed: 42, WAL: j})
		if err != nil {
			j.Close()
			t.Fatal(err)
		}
		return srv, rec, j
	}
	crash := func(srv *Server, j *wal.WAL) {
		t.Helper()
		srv.Close()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	srv, _, j := boot()
	if _, err := srv.Quarantine(held, true); err != nil {
		t.Fatal(err)
	}
	quarLSN := j.LastLSN()
	for i := 0; i < 30; i++ { // roll the quarantine record's segment shut
		if _, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{5, 21, 60 + i}}); err != nil {
			t.Fatal(err)
		}
	}
	// The committer seals the segment off the append path; wait for it,
	// or the restart's checkpoint could race the roll and find the
	// quarantine record's segment still active.
	for deadline := time.Now().Add(10 * time.Second); j.Stats().Segments < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the quarantine record's segment never rolled")
		}
	}
	crash(srv, j)

	srv, rec, j := boot()
	if rec.QuarantineRecords != 1 || !srv.QuarantineTable().Blocked(held) {
		t.Fatalf("first restart: %d quarantine records, blocked %v", rec.QuarantineRecords, srv.QuarantineTable().Blocked(held))
	}
	if first, _ := j.Window(); first <= quarLSN {
		t.Fatalf("journal still starts at LSN %d, at or below the quarantine record %d: test is vacuous", first, quarLSN)
	}
	crash(srv, j)

	srv, rec, j = boot()
	defer crash(srv, j)
	if rec.QuarantineRecords == 0 || !srv.QuarantineTable().Blocked(held) {
		t.Fatalf("second restart lost the quarantine table: %d records, blocked %v", rec.QuarantineRecords, srv.QuarantineTable().Blocked(held))
	}
}

// TestOpenWithoutWAL: an in-memory server restarts from its snapshot
// alone — loaded when present, a fresh start when missing, an error when
// unreadable.
func TestOpenWithoutWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), SnapshotFile)
	live := New(Config{Seed: 3})
	for i := 0; i < 5; i++ {
		if _, err := live.Rank(api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{5, 21}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := live.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	live.Close()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bootstrap := bandit.New(bandit.DefaultConfig(9))
	srv, rec, err := Open(Config{Seed: 3, SnapshotPath: path, Bandit: bootstrap})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := srv.SnapshotTo(&got); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if !rec.SnapshotLoaded || rec.Journal.Records != 0 || srv.Bandit() == bootstrap || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("existing snapshot not served (loaded %v, %d records)", rec.SnapshotLoaded, rec.Journal.Records)
	}

	missing := filepath.Join(t.TempDir(), SnapshotFile)
	srv, rec, err = Open(Config{Seed: 3, SnapshotPath: missing, Bandit: bootstrap})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if rec.Recovered() || srv.Bandit() != bootstrap {
		t.Fatal("missing snapshot did not start from the caller's model")
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a WAL-less Open wrote %s: %v", missing, err)
	}

	if err := os.WriteFile(path, []byte("not a snapshot\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if srv, _, err := Open(Config{Seed: 3, SnapshotPath: path}); err == nil || srv != nil {
		t.Fatalf("corrupt snapshot opened: server %v, err %v", srv != nil, err)
	}
}

// TestOpenFailsOnUncreatableIncidentDir: with a file where the incident
// directory should be, Open fails instead of starting an engine that
// reports itself enabled while every capture fails; a directory it can
// create, it creates.
func TestOpenFailsOnUncreatableIncidentDir(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "incidents")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{blocker, filepath.Join(blocker, "sub")} {
		srv, _, err := Open(Config{Seed: 1, IncidentDir: dir})
		if err == nil || srv != nil {
			if srv != nil {
				srv.Close()
			}
			t.Fatalf("Open with incident dir %s: server %v, err %v; want an error", dir, srv != nil, err)
		}
		if !strings.Contains(err.Error(), "incident dir") {
			t.Errorf("Open with incident dir %s: error %q does not name the incident dir", dir, err)
		}
	}

	fresh := filepath.Join(t.TempDir(), "a", "b")
	srv, _, err := Open(Config{Seed: 1, IncidentDir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if fi, err := os.Stat(fresh); err != nil || !fi.IsDir() {
		t.Fatalf("Open did not create incident dir %s: %v", fresh, err)
	}
	if st := srv.Stats(); st.Incidents == nil || !st.Incidents.Enabled {
		t.Fatalf("incidents block %+v, want enabled", st.Incidents)
	}
}

// TestRecoverRefusesReplayValues: the training cadence and the
// event-log cap are constants, so Recover's trainEvery and
// maxLogEvents accept only 0 and refuse anything else.
func TestRecoverRefusesReplayValues(t *testing.T) {
	for _, v := range [][2]int{{16, 0}, {bandit.DefaultTrainEvery, 0}, {0, 1}, {0, -1}, {0, bandit.ServingMaxLog}} {
		if _, err := Recover(nil, "", v[0], v[1], 42); err == nil {
			t.Errorf("Recover(trainEvery %d, maxLogEvents %d) succeeded, want an error", v[0], v[1])
		}
	}
	if _, err := Recover(nil, "", 0, 0, 42); err != nil {
		t.Fatalf("Recover(0, 0): %v", err)
	}
}

// TestRecoverRefusesCompactedStart: checkpoints compacted the start of
// the journal, so rebuilding without the checkpoint's snapshot would
// silently miss those records — Recover refuses, naming the first
// retained LSN and the one it needs, and so does a primary whose
// snapshot went missing.
func TestRecoverRefusesCompactedStart(t *testing.T) {
	r := newWALRig(t, 1024)
	for round := 0; round < 2; round++ {
		ids := nodetest.Rank(t, r.cl, 25, 30+round)
		nodetest.Reward(t, r.cl, ids[:20], 0.6)
		if _, err := r.srv.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
	}
	nodetest.Rank(t, r.cl, 5, 40)
	// Flush the records above the checkpoint to the segment file: a
	// replay that found none would have nothing to refuse.
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	first, _ := r.j.Window()
	if first <= 1 {
		t.Fatalf("journal starts at LSN %d: nothing compacted, test is vacuous", first)
	}
	nodetest.WaitReclaimed(t, r.j)

	_, err := Recover(wal.DirSource{Dir: r.dir}, "", 0, 0, 42)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidRequest ||
		!strings.Contains(err.Error(), "compacted") || !strings.Contains(err.Error(), "needs records from 1") {
		t.Fatalf("recover without the snapshot: err = %v, want invalid_request naming LSN 1", err)
	}
	if _, err := Recover(wal.DirSource{Dir: r.dir}, r.snap, 0, 0, 42); err != nil {
		t.Fatalf("recover from the checkpoint: %v", err)
	}
	missing := filepath.Join(t.TempDir(), SnapshotFile)
	if srv, _, err := Open(Config{Seed: 42, WAL: r.j, SnapshotPath: missing}); err == nil || srv != nil {
		t.Fatalf("primary without its snapshot booted over a compacted journal (err %v)", err)
	}
}

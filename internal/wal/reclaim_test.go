package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// These tests drive compaction's two halves: TruncateBefore detaching
// segments under the journal mutex, and the reclaimer unlinking them
// outside it. A wal.OpFS (export_test.go) under one journal blocks or
// fails the reclaimer's unlinks.

func openJournal(t *testing.T, dir string, mode wal.Mode, segBytes int64) *wal.WAL {
	t.Helper()
	return openJournalFS(t, nil, dir, mode, segBytes)
}

// openJournalFS is openJournal writing through fsys (nil = wal.OS).
func openJournalFS(t *testing.T, fsys wal.FS, dir string, mode wal.Mode, segBytes int64) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, Mode: mode, SegmentBytes: segBytes, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func appendCommitted(t *testing.T, w *wal.WAL, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("rec-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
	}
}

// listed returns the journal's segments on disk and fails unless they
// are one contiguous run of indexes.
func listed(t *testing.T, dir string) []wal.SegmentInfo {
	t.Helper()
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := contiguous(segs); err != nil {
		t.Fatal(err)
	}
	return segs
}

func contiguous(segs []wal.SegmentInfo) error {
	for i := 1; i < len(segs); i++ {
		if segs[i].Index != segs[i-1].Index+1 {
			return fmt.Errorf("segments on disk are not contiguous: %s follows %s",
				filepath.Base(segs[i].Path), filepath.Base(segs[i-1].Path))
		}
	}
	return nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// blockUnlinks returns an FS whose every unlink reports its path on
// entered and waits for release before it unlinks. Open the journal on
// it and register release after: cleanups then release the reclaimer
// and close the journal, in that order.
func blockUnlinks() (fsys *wal.OpFS, entered <-chan string, release func()) {
	ch := make(chan string, 64)
	gate := make(chan struct{})
	var once sync.Once
	fsys = &wal.OpFS{Before: func(op wal.Op) error {
		if op.Kind == "remove" {
			ch <- op.Path
			<-gate
		}
		return nil
	}}
	return fsys, ch, func() { once.Do(func() { close(gate) }) }
}

func receive(t *testing.T, ch <-chan string, what string) string {
	t.Helper()
	select {
	case p := <-ch:
		return p
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s within 5s", what)
		return ""
	}
}

// within fails the test unless fn returns within 5s: a call that waits
// for a blocked unlink would hang there.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return while an unlink was blocked", what)
	}
}

// TestReclaimOffTheLock is the gate of the split: with the reclaimer
// stuck inside the unlink of the oldest detached segment, appends,
// sync-mode commits, Window, Stats, Sync and a second TruncateBefore
// all complete. Released, the reclaimer unlinks exactly the detached
// segments by the time Close returns.
func TestReclaimOffTheLock(t *testing.T) {
	fsys, entered, release := blockUnlinks()
	dir := t.TempDir()
	w := openJournalFS(t, fsys, dir, wal.ModeSync, 64)
	t.Cleanup(release)
	appendCommitted(t, w, 20)
	before := listed(t, dir)
	if len(before) < 4 {
		t.Fatalf("%d segments; want several with 64-byte segments", len(before))
	}

	var n int
	within(t, "TruncateBefore", func() { n = w.TruncateBefore(10) })
	if n == 0 {
		t.Fatal("TruncateBefore(10) detached nothing")
	}
	if got := receive(t, entered, "unlink"); got != before[0].Path {
		t.Fatalf("first unlink is %s, want the oldest segment %s", got, before[0].Path)
	}
	within(t, "Append and a sync-mode Commit", func() { appendCommitted(t, w, 5) })
	within(t, "Window", func() {
		if first, _ := w.Window(); first != before[n].FirstLSN {
			t.Errorf("Window starts at %d with the unlink pending, want %d", first, before[n].FirstLSN)
		}
	})
	within(t, "Stats", func() {
		if st := w.Stats(); st.TruncatedSegs != int64(n) || st.FirstLSN != before[n].FirstLSN {
			t.Errorf("Stats with the unlink pending: %+v, want %d truncated from LSN %d", st, n, before[n].FirstLSN)
		}
	})
	within(t, "Sync", func() {
		if err := w.Sync(); err != nil {
			t.Error(err)
		}
	})
	within(t, "a second TruncateBefore", func() { w.TruncateBefore(10) })
	for _, s := range before {
		if !exists(s.Path) {
			t.Fatalf("%s unlinked while the reclaimer was blocked", s.Path)
		}
	}

	release()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range before {
		if gone := !exists(s.Path); gone != (i < n) {
			t.Errorf("%s: gone=%v after Close, want %v (%d of %d segments detached)", filepath.Base(s.Path), gone, i < n, n, len(before))
		}
	}
	listed(t, dir)
}

// TestReclaimRetriesFailedUnlink: an unlink that fails ends the pass
// with that segment and every later one still queued and on disk, so
// the files stay one contiguous run; the next pass starts again at the
// failed segment, and Close's final pass retries whatever is left.
func TestReclaimRetriesFailedUnlink(t *testing.T) {
	calls := make(chan string)
	answers := make(chan error)
	quit := make(chan struct{}) // a failed test lets the reclaimer finish
	fsys := &wal.OpFS{Before: func(op wal.Op) error {
		if op.Kind != "remove" {
			return nil
		}
		select {
		case calls <- op.Path:
		case <-quit:
			return nil
		}
		select {
		case err := <-answers:
			return err
		case <-quit:
		}
		return nil
	}}
	dir := t.TempDir()
	w := openJournalFS(t, fsys, dir, wal.ModeSync, 64)
	t.Cleanup(func() { close(quit) })
	appendCommitted(t, w, 20)
	before := listed(t, dir)
	n := w.TruncateBefore(before[len(before)-1].FirstLSN - 1)
	if n < 3 {
		t.Fatalf("TruncateBefore detached %d of %d segments; want at least 3", n, len(before))
	}

	// Pass 1 fails on the oldest segment and stops there.
	if got := receive(t, calls, "unlink"); got != before[0].Path {
		t.Fatalf("pass 1 unlinks %s first, want %s", got, before[0].Path)
	}
	answers <- syscall.EIO
	// The next TruncateBefore detaches nothing but starts pass 2, which
	// retries the oldest segment: pass 1 unlinked nothing after it.
	if got := w.TruncateBefore(0); got != 0 {
		t.Fatalf("TruncateBefore(0) detached %d", got)
	}
	if got := receive(t, calls, "retry"); got != before[0].Path {
		t.Fatalf("pass 2 unlinks %s first, want the failed %s", got, before[0].Path)
	}
	if on := listed(t, dir); on[0].Index != before[0].Index {
		t.Fatalf("after a failed unlink the journal starts at %s on disk, want %s", on[0].Path, before[0].Path)
	}
	answers <- nil
	// Pass 2 fails on the second segment: the first is gone, the rest
	// stays one run.
	if got := receive(t, calls, "unlink"); got != before[1].Path {
		t.Fatalf("pass 2 unlinks %s second, want %s", got, before[1].Path)
	}
	answers <- syscall.EIO

	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	if got := receive(t, calls, "final pass"); got != before[1].Path {
		t.Fatalf("Close's final pass unlinks %s first, want the failed %s", got, before[1].Path)
	}
	if on := listed(t, dir); on[0].Index != before[1].Index || exists(before[0].Path) {
		t.Fatalf("after pass 2 the journal starts at %s on disk, want %s", on[0].Path, before[1].Path)
	}
	answers <- nil
	for _, s := range before[2:n] {
		if got := receive(t, calls, "final pass"); got != s.Path {
			t.Fatalf("final pass unlinks %s, want %s", got, s.Path)
		}
		answers <- nil
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if on := listed(t, dir); on[0].Index != before[n].Index {
		t.Fatalf("after Close the journal starts at %s on disk, want %s", on[0].Path, before[n].Path)
	}
}

// TestScanDirSkipsVanishedSegment: a segment listed by the directory
// read but gone when it is opened was unlinked by compaction in
// between. The listing leaves it and every older segment out instead of
// failing. A dangling symlink is exactly such an entry: listed, and
// ENOENT on open.
func TestScanDirSkipsVanishedSegment(t *testing.T) {
	for _, gone := range []int{0, 2} {
		dir := t.TempDir()
		w := openJournal(t, dir, wal.ModeSync, 64)
		appendCommitted(t, w, 20)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs := listed(t, dir)
		if len(segs) < 4 {
			t.Fatalf("%d segments; want several with 64-byte segments", len(segs))
		}
		vanished := segs[gone].Path
		if err := os.Remove(vanished); err != nil {
			t.Fatal(err)
		}
		if err := os.Symlink(filepath.Join(dir, "unlinked"), vanished); err != nil {
			t.Fatal(err)
		}

		got := listed(t, dir)
		if len(got) != len(segs)-gone-1 || got[0].Path != segs[gone+1].Path {
			t.Fatalf("segment %d vanished: listing starts at %s with %d segments, want %s with %d",
				gone, got[0].Path, len(got), segs[gone+1].Path, len(segs)-gone-1)
		}
		last := segs[len(segs)-1].FirstLSN
		info, err := wal.DirSource{Dir: dir}.Replay(last-1, func(uint64, []byte) error { return nil })
		if err != nil || info.First != last {
			t.Fatalf("segment %d vanished: replay from %d = %+v, %v", gone, last, info, err)
		}
	}
}

// TestScanDirSkipsNewbornSegment: a roll creates the next segment file
// and then writes its header, so a directory reader can find the newest
// segment without one. It holds no record, and Segments and DirSource
// leave it out (Open removes it: TestOpenDropsNewbornSegment). A short
// header below the newest segment is damage.
func TestScanDirSkipsNewbornSegment(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir, wal.ModeSync, 64)
	appendCommitted(t, w, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listed(t, dir)
	newborn := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", segs[len(segs)-1].Index+1))
	if err := os.WriteFile(newborn, []byte("QOWAL0"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := listed(t, dir); len(got) != len(segs) {
		t.Fatalf("listing with a newborn segment: %d segments, want %d", len(got), len(segs))
	}
	if info, err := (wal.DirSource{Dir: dir}).Replay(0, func(uint64, []byte) error { return nil }); err != nil || info.Records != 20 {
		t.Fatalf("replay with a newborn segment: %+v, %v; want 20 records", info, err)
	}
	if err := os.Truncate(segs[1].Path, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Segments(dir); err == nil {
		t.Fatal("a short header below the newest segment listed without error")
	}
}

// replayAll returns every record in dir, failing unless their LSNs run
// densely from 1.
func replayAll(t *testing.T, dir string) []string {
	t.Helper()
	var got []string
	var next uint64 = 1
	if _, err := (wal.DirSource{Dir: dir}).Replay(0, func(lsn uint64, p []byte) error {
		if lsn != next {
			return fmt.Errorf("record at LSN %d, want %d", lsn, next)
		}
		next++
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOpenDropsNewbornSegment: a crash between a roll's create and its
// header write (or inside the first Open's) leaves a newest segment with
// no whole header — empty, or a prefix of one. Open removes it and resumes
// on the last sealed segment, or starts the journal afresh when there is
// none; appends continue the LSNs, and a replay returns exactly the
// records written before the crash and after Open. A header-less segment
// at an index no roll would have created, or a short header below the
// newest segment, is still an error.
func TestOpenDropsNewbornSegment(t *testing.T) {
	hdr := wal.SegmentHeader(1)
	want := func(before, after int) []string {
		var out []string
		for i := 0; i < before; i++ {
			out = append(out, fmt.Sprintf("rec-%04d", i))
		}
		for i := 0; i < after; i++ {
			out = append(out, fmt.Sprintf("rec-%04d", i))
		}
		return out
	}
	for _, sealed := range []int{0, 20} {
		for _, stub := range [][]byte{nil, hdr[:1], hdr[:len(hdr)-1]} {
			t.Run(fmt.Sprintf("%d records, %d-byte stub", sealed, len(stub)), func(t *testing.T) {
				dir := t.TempDir()
				next := uint64(1)
				if sealed > 0 {
					w := openJournal(t, dir, wal.ModeSync, 64)
					appendCommitted(t, w, sealed)
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					segs := listed(t, dir)
					next = segs[len(segs)-1].Index + 1
				}
				newborn := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", next))
				if err := os.WriteFile(newborn, stub, 0o644); err != nil {
					t.Fatal(err)
				}
				w, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 64})
				if err != nil {
					t.Fatalf("Open with a header-less newest segment: %v", err)
				}
				if _, err := os.Stat(newborn); sealed > 0 && !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("the stub survived Open: %v", err)
				}
				appendCommitted(t, w, 10)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				segs := listed(t, dir)
				if segs[0].Index != 1 || segs[len(segs)-1].Index < next {
					t.Fatalf("segments %+v after appends; want a run from 1 past index %d", segs, next)
				}
				if got, want := replayAll(t, dir), want(sealed, 10); !slices.Equal(got, want) {
					t.Fatalf("replay after Open and 10 appends:\n%q\nwant\n%q", got, want)
				}
			})
		}
	}

	t.Run("not the next index", func(t *testing.T) {
		dir := t.TempDir()
		w := openJournal(t, dir, wal.ModeSync, 64)
		appendCommitted(t, w, 20)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs := listed(t, dir)
		stray := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", segs[len(segs)-1].Index+2))
		if err := os.WriteFile(stray, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if w, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync}); err == nil {
			w.Close()
			t.Fatal("Open accepted a header-less segment two past the newest")
		}
		if _, err := os.Stat(stray); err != nil {
			t.Fatalf("a refused Open touched the stray segment: %v", err)
		}
		if err := os.Remove(stray); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segs[1].Path, 3); err != nil {
			t.Fatal(err)
		}
		if w, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync}); err == nil {
			w.Close()
			t.Fatal("Open accepted a short header below the newest segment")
		}
	})
}

// TestOpenNewbornUnlinkFails: Open drops a header-less newest segment
// through the same unlink the reclaimer uses, so a failing disk fails
// Open and leaves the stub and every sealed segment as they were; once
// the fault clears, the next Open drops the stub and replays the same
// records.
func TestOpenNewbornUnlinkFails(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir, wal.ModeSync, 64)
	appendCommitted(t, w, 20)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := listed(t, dir)
	hdr := wal.SegmentHeader(1)
	newborn := filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", segs[len(segs)-1].Index+1))
	if err := os.WriteFile(newborn, hdr[:1], 0o644); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	before := files()
	want := replayAll(t, dir)

	var unlinks []string
	failing := &wal.OpFS{Before: func(op wal.Op) error {
		if op.Kind != "remove" {
			return nil
		}
		unlinks = append(unlinks, op.Path)
		return &fs.PathError{Op: "remove", Path: op.Path, Err: syscall.EIO}
	}}
	if w, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 64, FS: failing}); err == nil {
		w.Close()
		t.Fatal("Open succeeded although the stub's unlink failed")
	} else if !errors.Is(err, syscall.EIO) {
		t.Errorf("Open with a failing unlink: %v, want EIO", err)
	}
	if !slices.Equal(unlinks, []string{newborn}) {
		t.Errorf("Open unlinked %q, want only the stub %s", unlinks, newborn)
	}
	if after := files(); !maps.Equal(after, before) {
		t.Fatalf("a failed Open changed the directory: %d files before, %d after", len(before), len(after))
	}

	w, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 64})
	if err != nil {
		t.Fatalf("Open after the fault cleared: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if exists(newborn) {
		t.Error("the stub survived the second Open")
	}
	if got := replayAll(t, dir); !slices.Equal(got, want) || len(got) != 20 {
		t.Fatalf("replay after the second Open:\n%q\nwant\n%q", got, want)
	}
}

// TestDirSourceReplayRacesCompaction lists and replays the journal
// directory while appends roll segments and compaction detaches and
// unlinks them. A listing never fails and is always one contiguous run.
// A replay delivers a dense run of records through the durable frontier
// it started at, or fails only because compaction unlinked a segment it
// had to read.
func TestDirSourceReplayRacesCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openJournal(t, dir, wal.ModeOff, 64)
	var mark atomic.Uint64 // what the writer compacts to next
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Append([]byte(fmt.Sprintf("rec-%06d", i))); err != nil {
				t.Error(err)
				return
			}
			if i%16 == 15 {
				if err := w.Sync(); err != nil {
					t.Error(err)
					return
				}
				w.TruncateBefore(mark.Swap(w.LastLSN()))
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	var completed, unlinked int
	for k := 0; k < 300; k++ {
		segs, err := wal.Segments(dir)
		if err != nil {
			t.Fatalf("listing %d: %v", k, err)
		}
		if err := contiguous(segs); err != nil {
			t.Fatalf("listing %d: %v", k, err)
		}
		after, frontier := mark.Load(), w.SyncedLSN()
		var next uint64
		_, err = wal.DirSource{Dir: dir}.Replay(after, func(lsn uint64, _ []byte) error {
			if next != 0 && lsn != next {
				return fmt.Errorf("record %d follows %d", lsn, next-1)
			}
			next = lsn + 1
			return nil
		})
		switch {
		case errors.Is(err, fs.ErrNotExist):
			unlinked++
		case err != nil:
			t.Fatalf("replay %d after %d: %v", k, after, err)
		case next != 0 && next-1 < frontier:
			t.Fatalf("replay %d after %d ended at %d, below the frontier %d it started at", k, after, next-1, frontier)
		default:
			completed++
		}
	}
	if completed == 0 {
		t.Fatalf("no replay completed (%d lost a segment to compaction)", unlinked)
	}
	t.Logf("%d replays completed, %d lost a segment to compaction", completed, unlinked)
}

// serveTraffic ranks n bandit-path jobs and rewards them all: every
// rank is journaled under the bandit's event-log mutex, every reward
// batch committed before it is accepted.
func serveTraffic(t *testing.T, srv *serve.Server, n, salt int) {
	t.Helper()
	rewards := make([]walrec.RewardEntry, 0, n)
	for i := 0; i < n; i++ {
		resp, err := srv.Rank(api.RankRequest{
			TemplateHash: api.TemplateHash(uint64(salt)<<32 | uint64(i)),
			Span:         []int{3 + (i+salt)%50, 60 + (i*7+salt)%50, 120 + i%30},
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards = append(rewards, walrec.RewardEntry{EventID: resp.EventID, Value: 0.25 + float64(i%4)*0.25})
	}
	if got, err := srv.Ingestor().EnqueueBatch(rewards); got != n || err != nil {
		t.Fatalf("%d of %d rewards accepted: %v", got, n, err)
	}
	srv.Ingestor().Drain()
}

// liveModel is the live model's persisted form with its watermark at
// the journal end: what a recovery must reproduce byte for byte.
func liveModel(t *testing.T, srv *serve.Server, j *wal.WAL) []byte {
	t.Helper()
	srv.Ingestor().Drain()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Bandit().SetWALWatermark(j.LastLSN())
	var buf bytes.Buffer
	if err := srv.Bandit().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReclaimCheckpointOffTheLock: a checkpoint returns without waiting
// for the unlinks of the segments it compacted, and while the first of
// them is blocked, ranking, rewards and the next checkpoint all
// complete.
func TestReclaimCheckpointOffTheLock(t *testing.T) {
	fsys, entered, release := blockUnlinks()
	dir := t.TempDir()
	j := openJournalFS(t, fsys, dir, wal.ModeSync, 1024)
	srv := serve.New(serve.Config{Seed: 42, WAL: j})
	t.Cleanup(srv.Close)
	t.Cleanup(release)
	snap := filepath.Join(dir, serve.SnapshotFile)

	serveTraffic(t, srv, 30, 1)
	var info serve.CheckpointInfo
	within(t, "Checkpoint", func() {
		var err error
		if info, err = srv.Checkpoint(snap); err != nil {
			t.Error(err)
		}
	})
	if info.SegmentsRemoved == 0 {
		t.Fatalf("checkpoint compacted nothing at 1 KiB segments: %+v", info)
	}
	receive(t, entered, "unlink")
	within(t, "ranks and a reward batch", func() { serveTraffic(t, srv, 30, 2) })
	within(t, "the next Checkpoint", func() {
		if _, err := srv.Checkpoint(snap); err != nil {
			t.Error(err)
		}
	})

	release()
	srv.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	first, _ := j.Window()
	if on := listed(t, dir); len(on) == 0 || on[0].FirstLSN != first {
		t.Fatalf("after Close the segments on disk are %+v, want a run starting at the window's first LSN %d", on, first)
	}
}

// TestReclaimAfterCrash: a process that died before its reclaimer ran
// leaves every segment its checkpoints detached on disk. Recovery from
// the checkpoint is still byte-identical to the live model (replay skips
// those segments below the watermark), and the restart's own checkpoint
// compacts and unlinks them.
func TestReclaimAfterCrash(t *testing.T) {
	failing := &wal.OpFS{Before: func(op wal.Op) error {
		if op.Kind == "remove" {
			return &os.PathError{Op: "remove", Path: op.Path, Err: syscall.EIO}
		}
		return nil
	}}
	dir := t.TempDir()
	j := openJournalFS(t, failing, dir, wal.ModeSync, 1024)
	srv := serve.New(serve.Config{Seed: 42, WAL: j})
	snap := filepath.Join(dir, serve.SnapshotFile)
	for round := 0; round < 2; round++ {
		serveTraffic(t, srv, 25, round)
		if info, err := srv.Checkpoint(snap); err != nil || info.SegmentsRemoved == 0 {
			t.Fatalf("checkpoint %d: %+v, %v; want segments compacted", round, info, err)
		}
	}
	serveTraffic(t, srv, 10, 9)
	want := liveModel(t, srv, j)
	first, _ := j.Window()
	if on := listed(t, dir); on[0].FirstLSN != 1 || first <= 1 {
		t.Fatalf("the journal starts at LSN %d on disk and %d in its window; want 1 and above", on[0].FirstLSN, first)
	}

	// The crash: the directory as it stands is what a restart reads.
	rec, err := serve.Recover(wal.DirSource{Dir: dir}, snap, 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rec.Service.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("recovery over unreclaimed segments differs from the live model")
	}

	srv.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if reopened, _ := j2.Window(); reopened != 1 {
		t.Fatalf("reopened journal starts at LSN %d, want 1: Open lists the unreclaimed segments", reopened)
	}
	srv2, _, err := serve.Open(serve.Config{Seed: 42, WAL: j2, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	reclaimed, _ := j2.Window()
	if on := listed(t, dir); on[0].FirstLSN != reclaimed || reclaimed < first {
		t.Fatalf("after the restart's checkpoint the journal starts at LSN %d on disk and %d in its window; want both at or above %d",
			on[0].FirstLSN, reclaimed, first)
	}
}

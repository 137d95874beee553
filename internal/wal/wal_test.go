package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"qoadvisor/internal/budget"
)

func openTest(t *testing.T, dir string, mode Mode, segBytes int64) *WAL {
	t.Helper()
	w, err := Open(Options{Dir: dir, Mode: mode, SegmentBytes: segBytes, flushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDefaultOptions pins what an unset Options runs with: the 5 ms
// group-commit window (a constant; only this package's tests shorten
// it) and 64 MiB segments.
func TestDefaultOptions(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Mode: ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"flushEvery", int64(w.opts.flushEvery), int64(5 * time.Millisecond)},
		{"SegmentBytes", w.opts.SegmentBytes, 64 << 20},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func appendN(t *testing.T, w *WAL, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		lsn, err := w.Append([]byte(fmt.Sprintf("%s-%04d", tag, i)))
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatalf("Commit %d: %v", lsn, err)
		}
	}
}

func collect(t *testing.T, src Source, after uint64) ([]uint64, []string, ReplayInfo) {
	t.Helper()
	var lsns []uint64
	var recs []string
	info, err := src.Replay(after, func(lsn uint64, p []byte) error {
		lsns = append(lsns, lsn)
		recs = append(recs, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return lsns, recs, info
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, ModeSync, 0)
	appendN(t, w, 10, "rec")
	if got := w.LastLSN(); got != 10 {
		t.Errorf("LastLSN = %d, want 10", got)
	}

	lsns, recs, info := collect(t, w, 0)
	if len(recs) != 10 || info.Records != 10 {
		t.Fatalf("replayed %d records (info %d), want 10", len(recs), info.Records)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Errorf("record %d has LSN %d, want %d (dense from 1)", i, lsn, i+1)
		}
		if want := fmt.Sprintf("rec-%04d", i); recs[i] != want {
			t.Errorf("record %d = %q, want %q", i, recs[i], want)
		}
	}

	// Suffix replay: afterLSN is exclusive.
	lsns, _, info = collect(t, w, 7)
	if len(lsns) != 3 || lsns[0] != 8 || info.Skipped != 7 {
		t.Errorf("replay after 7: lsns=%v skipped=%d, want [8 9 10] skipped=7", lsns, info.Skipped)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, ModeAsync, 0)
	appendN(t, w, 5, "a")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w = openTest(t, dir, ModeAsync, 0)
	if got := w.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after reopen = %d, want 5", got)
	}
	appendN(t, w, 5, "b")
	w.Close()

	lsns, recs, _ := collect(t, DirSource{Dir: dir}, 0)
	if len(lsns) != 10 || recs[5] != "b-0000" || lsns[9] != 10 {
		t.Fatalf("after reopen: %d records, recs[5]=%q lsns[9]=%d", len(lsns), recs[5], lsns[9])
	}
}

func TestSegmentRollAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every ~3 records rolls.
	w := openTest(t, dir, ModeSync, 64)
	appendN(t, w, 20, "seg")

	st := w.Stats()
	if st.Segments < 4 {
		t.Fatalf("Segments = %d, want several with 64-byte segment cap", st.Segments)
	}
	// All records must survive rolling.
	lsns, _, _ := collect(t, w, 0)
	if len(lsns) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(lsns))
	}

	// Truncation below LSN 10 must keep every record above 10 and
	// remove at least one sealed segment.
	removed := w.TruncateBefore(10)
	if removed == 0 {
		t.Fatal("TruncateBefore(10) removed nothing with 64-byte segments")
	}
	lsns, _, _ = collect(t, w, 0)
	if len(lsns) == 0 || lsns[len(lsns)-1] != 20 {
		t.Fatalf("post-truncate replay lost the tail: %v", lsns)
	}
	for _, lsn := range lsns {
		if lsn > 10 {
			break
		}
	}
	if first := w.Stats().FirstLSN; first == 0 || first > 11 {
		t.Errorf("FirstLSN after truncate = %d, want in (0,11]", first)
	}
	// The active segment never goes away even if fully covered.
	if got := w.TruncateBefore(1 << 62); w.Stats().Segments < 1 {
		t.Errorf("active segment removed (removed %d)", got)
	}
	w.Close()

	// Reopen after truncation: LSNs still continue.
	w = openTest(t, dir, ModeSync, 64)
	defer w.Close()
	if got := w.LastLSN(); got != 20 {
		t.Errorf("LastLSN after truncated reopen = %d, want 20", got)
	}
}

// corruptTail exercises the crash-recovery contract: a torn or corrupt
// final record is skipped cleanly, records before it survive.
func TestTornAndCorruptTail(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		w := openTest(t, dir, ModeSync, 0)
		appendN(t, w, 6, "tail")
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("want 1 segment, got %v (%v)", segs, err)
		}
		return dir, segs[0]
	}

	t.Run("torn final record", func(t *testing.T) {
		dir, seg := build(t)
		fi, _ := os.Stat(seg)
		if err := os.Truncate(seg, fi.Size()-5); err != nil {
			t.Fatal(err)
		}
		lsns, _, info := collect(t, DirSource{Dir: dir}, 0)
		if len(lsns) != 5 || !info.Truncated {
			t.Fatalf("torn tail: got %d records (truncated=%v), want 5 with truncation flagged", len(lsns), info.Truncated)
		}
		// Open must recover the same way and accept new appends.
		w := openTest(t, dir, ModeSync, 0)
		defer w.Close()
		if got := w.LastLSN(); got != 5 {
			t.Fatalf("LastLSN after torn-tail open = %d, want 5", got)
		}
		appendN(t, w, 1, "post")
		lsns, recs, info := collect(t, w, 0)
		if len(lsns) != 6 || recs[5] != "post-0000" || info.Truncated {
			t.Fatalf("append after torn-tail recovery: lsns=%v recs[5]=%q truncated=%v", lsns, recs[5], info.Truncated)
		}
	})

	t.Run("corrupt CRC in final record", func(t *testing.T) {
		dir, seg := build(t)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff // flip a payload byte of the last record
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		lsns, _, info := collect(t, DirSource{Dir: dir}, 0)
		if len(lsns) != 5 || !info.Truncated {
			t.Fatalf("corrupt CRC: got %d records (truncated=%v), want 5 with truncation flagged", len(lsns), info.Truncated)
		}
	})

	t.Run("garbage length prefix", func(t *testing.T) {
		dir, seg := build(t)
		f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		// A fake record header claiming an absurd length, then noise.
		f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5, 6})
		f.Close()
		lsns, _, info := collect(t, DirSource{Dir: dir}, 0)
		if len(lsns) != 6 || !info.Truncated {
			t.Fatalf("garbage tail: got %d records (truncated=%v), want 6 with truncation flagged", len(lsns), info.Truncated)
		}
	})

	t.Run("damage mid-log is an error", func(t *testing.T) {
		dir := t.TempDir()
		w := openTest(t, dir, ModeSync, 64) // roll often: several segments
		appendN(t, w, 12, "mid")
		w.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if len(segs) < 3 {
			t.Fatalf("want >=3 segments, got %d", len(segs))
		}
		data, _ := os.ReadFile(segs[0])
		data[len(data)-1] ^= 0xff
		os.WriteFile(segs[0], data, 0o644)
		_, err := DirSource{Dir: dir}.Replay(0, func(uint64, []byte) error { return nil })
		if err == nil {
			t.Fatal("corruption in a non-final segment replayed without error")
		}
	})
}

func TestGroupCommitConcurrentSync(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Mode: ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const writers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := w.Append([]byte(fmt.Sprintf("g%d-%d", g, i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := w.Commit(lsn); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := w.Stats()
	if st.Appends != writers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, writers*per)
	}
	if st.SyncedLSN != uint64(writers*per) {
		t.Fatalf("SyncedLSN = %d, want %d (every committed record durable)", st.SyncedLSN, writers*per)
	}
	// The point of group commit: far fewer fsyncs than commits.
	if st.Syncs >= int64(writers*per) {
		t.Errorf("Syncs = %d for %d commits — group commit is not batching", st.Syncs, writers*per)
	}
	lsns, _, _ := collect(t, w, 0)
	if len(lsns) != writers*per {
		t.Fatalf("replayed %d, want %d", len(lsns), writers*per)
	}
}

func TestModeParseAndStats(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"sync", ModeSync}, {"async", ModeAsync}, {"off", ModeOff}, {"", ModeAsync}} {
		m, err := ParseMode(tc.in)
		if err != nil || m != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, m, err)
		}
	}
	if _, err := ParseMode("fsync-maybe"); err == nil {
		t.Error("ParseMode accepted garbage")
	}

	dir := t.TempDir()
	w := openTest(t, dir, ModeOff, 0)
	defer w.Close()
	lsn, err := w.Append(bytes.Repeat([]byte("x"), 100))
	if err != nil || lsn != 1 {
		t.Fatalf("Append = %d, %v", lsn, err)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatalf("Commit in ModeOff: %v", err)
	}
	st := w.Stats()
	if st.Mode != "off" || st.LastLSN != 1 || st.AppendedBytes == 0 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestAppendValidation(t *testing.T) {
	w := openTest(t, t.TempDir(), ModeOff, 0)
	defer w.Close()
	if _, err := w.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if _, err := w.Append(make([]byte, MaxRecordSize+1)); err == nil {
		t.Error("oversized record accepted")
	}
	w.Close()
	if _, err := w.Append([]byte("x")); err == nil {
		t.Error("append after Close accepted")
	}
}

// TestWaitLSN covers the replication long-poll primitive: a waiter
// parked below the durable frontier wakes when a commit covers its
// LSN, a waiter asking for a future LSN returns at its deadline with
// the frontier unchanged, and one whose context is cancelled — its
// client went away — returns at once.
func TestWaitLSN(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, ModeAsync, 0)
	defer w.Close()
	appendN(t, w, 3, "seed")

	// Already-covered LSN returns immediately.
	if got := w.WaitLSN(context.Background(), 3, 5*time.Second); got < 3 {
		t.Fatalf("WaitLSN(3) = %d, want >= 3", got)
	}
	// Future LSN times out without advancing.
	start := time.Now()
	if got := w.WaitLSN(context.Background(), 100, 30*time.Millisecond); got >= 100 {
		t.Fatalf("WaitLSN(100) = %d with nothing appended", got)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatalf("WaitLSN returned before its deadline")
	}

	// A concurrent append wakes the waiter well before a long deadline.
	done := make(chan uint64, 1)
	go func() { done <- w.WaitLSN(context.Background(), 4, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	lsn, err := w.Append([]byte("wake"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got < lsn {
			t.Fatalf("woken WaitLSN = %d, want >= %d", got, lsn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitLSN not woken by append + group commit")
	}
	if w.SyncedLSN() < lsn {
		t.Fatalf("SyncedLSN = %d after wake, want >= %d", w.SyncedLSN(), lsn)
	}

	// Cancelling the context wakes a parked waiter long before its deadline.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { done <- w.WaitLSN(ctx, 1000, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitLSN not woken by its context's cancellation")
	}

	// Close wakes any parked waiter.
	go func() { done <- w.WaitLSN(context.Background(), 1000, 10*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitLSN not woken by Close")
	}
}

// TestDirSourceResumeMidSegment pins the resume-from-LSN contract a
// follower's reconnect depends on: replaying after an LSN that falls in
// the middle of a segment delivers exactly the suffix, record for
// record, for every possible resume point across segment boundaries.
func TestDirSourceResumeMidSegment(t *testing.T) {
	dir := t.TempDir()
	// Small segments force several files so resume points land at heads,
	// tails, and middles of segments. Rolls happen on the committer, off
	// the append path, so give it a chance to roll between bursts.
	w := openTest(t, dir, ModeOff, 128)
	const total = 40
	for burst := 0; burst < 4; burst++ {
		for i := burst * 10; i < (burst+1)*10; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for w.Stats().Segments < burst+2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _, err := scanDir(dir); err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments for a meaningful resume test, got %d (err %v)", len(segs), err)
	}

	src := DirSource{Dir: dir}
	for after := uint64(0); after <= total; after++ {
		lsns, recs, info := collect(t, src, after)
		want := int(total - after)
		if len(lsns) != want || info.Records != int64(want) {
			t.Fatalf("after=%d: got %d records (info %d), want %d", after, len(lsns), info.Records, want)
		}
		for i, lsn := range lsns {
			if exp := after + uint64(i) + 1; lsn != exp {
				t.Fatalf("after=%d: record %d has LSN %d, want %d", after, i, lsn, exp)
			}
			if exp := fmt.Sprintf("rec-%04d", lsn-1); recs[i] != exp {
				t.Fatalf("after=%d: record %d = %q, want %q", after, i, recs[i], exp)
			}
		}
		if info.Skipped != int64(after) {
			t.Fatalf("after=%d: skipped %d, want %d", after, info.Skipped, after)
		}
	}
}

// TestCursorTailsAcrossRolls pins the stateful tail reader the
// replication stream rides on: a cursor delivers every record exactly
// once across segment rolls and live appends, without re-reading shipped
// prefixes, and reports compaction passing it as an error.
func TestCursorTailsAcrossRolls(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, ModeOff, 160)
	defer w.Close()

	var got []uint64
	collectFn := func(lsn uint64, frame []byte) error {
		p := frame[recHeaderSize:]
		if want := fmt.Sprintf("rec-%04d", lsn-1); string(p) != want {
			t.Fatalf("lsn %d payload %q, want %q", lsn, p, want)
		}
		if binary.LittleEndian.Uint32(frame) != uint32(len(p)) || binary.LittleEndian.Uint32(frame[4:]) != crc32.Checksum(p, crcTable) {
			t.Fatalf("lsn %d frame header %x does not frame its payload", lsn, frame[:recHeaderSize])
		}
		got = append(got, lsn)
		return nil
	}

	appendBurst := func(start, n int) {
		t.Helper()
		for i := start; i < start+n; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("rec-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	appendBurst(0, 12)
	cur := w.NewCursor(3) // resume mid-segment, as a follower reconnect would
	n, err := cur.Next(w.SyncedLSN(), collectFn)
	if err != nil || n != 9 { // LSNs 4..12
		t.Fatalf("first Next = %d, %v (want 9)", n, err)
	}

	// Live tail across several rolls: each burst crosses the 160-byte
	// segment threshold, and the committer rolls between bursts.
	for burst := 0; burst < 4; burst++ {
		appendBurst(12+burst*10, 10)
		deadline := time.Now().Add(2 * time.Second)
		for w.Stats().Segments < burst+2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if _, err := cur.Next(w.SyncedLSN(), collectFn); err != nil {
			t.Fatalf("burst %d: %v", burst, err)
		}
	}
	if uint64(len(got)) != w.LastLSN()-3 {
		t.Fatalf("delivered %d records, want %d", len(got), w.LastLSN()-3)
	}
	for i, lsn := range got {
		if lsn != uint64(4+i) {
			t.Fatalf("record %d has LSN %d, want %d", i, lsn, 4+i)
		}
	}

	// Compaction passing a parked cursor is an error, not silence.
	stale := w.NewCursor(0)
	if w.TruncateBefore(w.LastLSN()) == 0 {
		t.Fatal("nothing compacted; test is vacuous")
	}
	if _, err := stale.Next(w.SyncedLSN(), collectFn); err == nil {
		t.Fatal("cursor did not report the gap after compaction")
	}
}

// TestAppendDoesNotAllocate pins the append path at zero allocations:
// the record header lives in the WAL, not in a local that escapes
// through the buffered writer.
func TestAppendDoesNotAllocate(t *testing.T) {
	w := openTest(t, t.TempDir(), ModeOff, 64<<20)
	defer w.Close()
	payload := bytes.Repeat([]byte{0xa5}, 200)
	budget.Allocs(t, "wal.append", 2000, func() {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCursorDropsLargeScratch ships a 1 MiB record (a hint rollover)
// and then a small one through a tail cursor: both arrive intact, and
// the cursor does not keep the megabyte it read the first one into.
func TestCursorDropsLargeScratch(t *testing.T) {
	w := openTest(t, t.TempDir(), ModeOff, 64<<20)
	defer w.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	small := bytes.Repeat([]byte("reward"), 34)[:200]
	for _, p := range [][]byte{big, small} {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	cur := w.NewCursor(0)
	var got [][]byte
	n, err := cur.Next(w.SyncedLSN(), func(_ uint64, frame []byte) error {
		got = append(got, append([]byte(nil), frame[recHeaderSize:]...))
		return nil
	})
	if err != nil || n != 2 {
		t.Fatalf("Next = %d, %v (want 2 records)", n, err)
	}
	if !bytes.Equal(got[0], big) || !bytes.Equal(got[1], small) {
		t.Error("payloads damaged in transit")
	}
	if cap(cur.scratch) > maxKeptFrame {
		t.Errorf("cursor keeps a %d-byte scratch after the large record, want <= %d", cap(cur.scratch), maxKeptFrame)
	}
}

// TestSealedSegmentsHoldRecords: with segments at or below the header's
// size every record crosses the roll threshold, and the committer's ticks
// in between must not seal the empty segment each roll opens: every sealed
// segment's LSN window [firstLSN, next segment's firstLSN) is non-empty.
func TestSealedSegmentsHoldRecords(t *testing.T) {
	for _, segBytes := range []int64{1, segHeaderSize} {
		dir := t.TempDir()
		w := openTest(t, dir, ModeSync, segBytes)
		for burst := 0; burst < 3; burst++ {
			appendN(t, w, 2, fmt.Sprint("burst", burst))
			time.Sleep(20 * time.Millisecond) // twenty committer ticks with nothing to roll
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, err := scanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(segs); i++ {
			if segs[i].firstLSN <= segs[i-1].firstLSN {
				t.Errorf("segBytes %d: sealed segment %s holds no record (first LSN %d, next segment's %d)",
					segBytes, filepath.Base(segs[i-1].path), segs[i-1].firstLSN, segs[i].firstLSN)
			}
		}
		if len(segs) > 7 {
			t.Errorf("segBytes %d: %d segments for 6 records", segBytes, len(segs))
		}
	}
}

// TestWriteFileAtomic: a replace leaves the new bytes and no temp file,
// and a write that fails leaves the old file as it was.
func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snap")
	for _, data := range []string{"first", "second, longer"} {
		if err := WriteFileAtomic(OS{}, path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("after replace: %q, %v; want %q", got, err, data)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
	// A directory where the temp file goes makes the write fail.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(OS{}, path, []byte("third")); err == nil {
		t.Fatal("write over an uncreatable temp file succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second, longer" {
		t.Fatalf("after a failed write: %q, %v; want the old bytes", got, err)
	}
}

// TestWriteFileAtomicDirSyncError: a failed directory fsync is the
// caller's error (a checkpoint must not compact behind a rename that
// may not survive a crash), except the EINVAL a filesystem that cannot
// fsync directories answers. The FS's SyncDir runs OS's rule over a
// directory fsync that fails.
func TestWriteFileAtomicDirSyncError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.snap")
	for _, tc := range []struct {
		err  error
		fail bool
	}{
		{&os.PathError{Op: "sync", Err: syscall.EIO}, true},
		{&os.PathError{Op: "sync", Err: syscall.EINVAL}, false},
	} {
		fsys := &OpFS{Before: func(op Op) error {
			if op.Kind != "syncdir" {
				return nil
			}
			return syncDir(op.Path, func(*os.File) error { return tc.err })
		}}
		err := WriteFileAtomic(fsys, path, []byte("data"))
		if (err != nil) != tc.fail {
			t.Errorf("directory fsync fails with %v: WriteFileAtomic = %v, want failure %v", tc.err, err, tc.fail)
		}
	}
}

// TestCursorWakeAllocBudget: a warm tail cursor delivering one new
// record — one long-poll wake of the replication stream — allocates
// nothing. It keeps its segment open and copies the segment list into
// a slice of its own, where a wake used to open the file, allocate a
// 64 KiB read buffer and copy the list afresh.
func TestCursorWakeAllocBudget(t *testing.T) {
	w := openTest(t, t.TempDir(), ModeOff, 64<<20)
	defer w.Close()
	payload := bytes.Repeat([]byte{0x5a}, 200)
	cur := w.NewCursor(0)
	defer cur.Close()
	wake := func() {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		n, err := cur.Next(w.LastLSN(), func(_ uint64, frame []byte) error {
			if !bytes.Equal(frame[recHeaderSize:], payload) {
				t.Fatalf("frame %x does not carry the payload", frame)
			}
			return nil
		})
		if err != nil || n != 1 {
			t.Fatalf("Next = %d, %v (want 1 record)", n, err)
		}
	}
	wake() // locate and open the segment
	budget.Allocs(t, "wal.cursor_wake", 1000, wake)
}

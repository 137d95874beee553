package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestRollDirSyncErrorFailStop: a roll fsyncs the directory before any
// record of the new segment can be acknowledged, and a failure there
// latches the journal fail-stop like a failed segment fsync: the
// Commit waiting on the roll fails, and so does every later Append and
// Commit, after the fault is gone too.
func TestRollDirSyncErrorFailStop(t *testing.T) {
	var armed atomic.Bool
	fsys := &OpFS{Before: func(op Op) error {
		if op.Kind == "syncdir" && armed.Load() {
			return syscall.EIO
		}
		return nil
	}}
	w, err := Open(Options{Dir: t.TempDir(), Mode: ModeSync, SegmentBytes: 64, FS: fsys, flushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn, err := w.Append([]byte("fits the first segment"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(lsn); err != nil {
		t.Fatal(err)
	}

	armed.Store(true)
	lsn, err = w.Append(bytes.Repeat([]byte{'r'}, 64)) // crosses the roll threshold
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(lsn); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Commit across a roll whose directory fsync failed = %v, want EIO", err)
	}
	if st := w.Stats(); st.Segments != 2 {
		t.Fatalf("%d segments after the roll, want 2", st.Segments)
	}
	armed.Store(false)
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte("after the fault")); !errors.Is(err, syscall.EIO) {
			t.Fatalf("Append %d after the failed directory fsync = %v, want the latched EIO", i, err)
		}
	}
	if err := w.Commit(lsn); !errors.Is(err, syscall.EIO) {
		t.Fatalf("a later Commit = %v, want the latched EIO", err)
	}
}

// TestDurableOpsOrdered pins the ordered log of durable operations one
// scripted session makes through the journal's FS: open a fresh
// journal, append and commit ten records in ModeSync (three records a
// segment, so three rolls), publish a snapshot covering LSN 7 with
// WriteFileAtomic, TruncateBefore(7), let the reclaimer's pass run, and
// close. It holds the count N, the first step of enumerating crash
// points, and three ordering rules:
//   - no Commit returns before the Create of its record's segment has
//     been followed by a SyncDir of the journal directory;
//   - the snapshot's Rename is dir-synced before any Remove of a segment
//     it covers;
//   - only segments wholly at or below the snapshot's watermark are
//     removed.
func TestDurableOpsOrdered(t *testing.T) {
	const (
		records   = 10
		watermark = 7
		// Open 4 (mkdir, create, header write, directory fsync); seven
		// records 2 each (write, fsync) and three that roll 5 each (write,
		// create, header write, fsync, directory fsync); the snapshot 5
		// (openat, write, fsync, rename, directory fsync); the reclaimer
		// 3 (two removes, directory fsync); Close 1 (fsync).
		wantN = 42
	)
	dir := t.TempDir()
	fsys := &OpFS{}
	// 16-byte header + 3 records of 48 bytes crosses 128: every third
	// record rolls.
	w, err := Open(Options{Dir: dir, Mode: ModeSync, SegmentBytes: 128, FS: fsys, flushEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	committed := make(map[uint64]int) // LSN → log length when its Commit returned
	for i := 0; i < records; i++ {
		lsn, err := w.Append(bytes.Repeat([]byte{byte('a' + i)}, 40))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(lsn); err != nil {
			t.Fatal(err)
		}
		committed[lsn] = len(fsys.Ops())
	}
	segs, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("%d segments for %d records, want 4", len(segs), records)
	}

	snap := filepath.Join(dir, "model.snap")
	if err := WriteFileAtomic(fsys, snap, []byte("snapshot at LSN 7")); err != nil {
		t.Fatal(err)
	}
	if n := w.TruncateBefore(watermark); n != 2 {
		t.Fatalf("TruncateBefore(%d) detached %d segments, want 2", watermark, n)
	}
	// Wait out the reclaimer's pass (its unlinks, then a directory
	// fsync), so Close's final pass finds nothing.
	for deadline := time.Now().Add(5 * time.Second); ; {
		ops := fsys.Ops()
		if n := len(ops); ops[n-2].Kind == "remove" && ops[n-1].Kind == "syncdir" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the reclaimer's pass did not finish; log ends %v", ops[len(ops)-1])
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ops := fsys.Ops()

	index := func(op Op, from int) int {
		if i := slices.Index(ops[from:], op); i >= 0 {
			return from + i
		}
		return -1
	}
	segOf := func(lsn uint64) segment {
		i := len(segs) - 1
		for segs[i].firstLSN > lsn {
			i--
		}
		return segs[i]
	}
	for lsn := uint64(1); lsn <= records; lsn++ {
		created := index(Op{"create", segOf(lsn).path}, 0)
		synced := index(Op{"syncdir", dir}, created+1)
		if created < 0 || synced < 0 || synced >= committed[lsn] {
			t.Errorf("Commit(%d) returned after %d operations; its segment's create is at %d, the directory fsync after it at %d",
				lsn, committed[lsn], created, synced)
		}
	}
	renamed := index(Op{"rename", snap}, 0)
	published := index(Op{"syncdir", dir}, renamed+1)
	for i, op := range ops {
		if op.Kind != "remove" {
			continue
		}
		k := slices.IndexFunc(segs, func(s segment) bool { return s.path == op.Path })
		if k < 0 || k+1 == len(segs) || segs[k+1].firstLSN-1 > watermark {
			t.Errorf("removed %s, which holds records above the watermark %d", op.Path, watermark)
		}
		if renamed < 0 || published < 0 || i < published {
			t.Errorf("removed %s at operation %d, before the snapshot's rename (%d) was dir-synced (%d)", op.Path, i, renamed, published)
		}
	}
	if len(ops) != wantN {
		for i, op := range ops {
			t.Logf("%2d %-7s %s", i, op.Kind, filepath.Base(op.Path))
		}
		t.Fatalf("the session made %d durable operations, want %d", len(ops), wantN)
	}
}

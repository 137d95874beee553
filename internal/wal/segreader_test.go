package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// buildMultiSegment writes enough records through a tiny-segment WAL to
// roll several segments, closes it, and returns the segment list.
func buildMultiSegment(t *testing.T, dir string, n int) []SegmentInfo {
	t.Helper()
	w := openTest(t, dir, ModeSync, 256)
	appendN(t, w, n, "seg")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments for a multi-segment fixture, got %d", len(segs))
	}
	return segs
}

// TestSegmentReaderRoundTrip drives the exported reader over every
// segment and checks it yields exactly the appended records, in dense
// LSN order, with resumable offsets.
func TestSegmentReaderRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 40
	segs := buildMultiSegment(t, dir, n)

	var lsns []uint64
	var offsets []int64 // frame-boundary offsets per record, for resume checks
	var segOf []SegmentInfo
	for _, seg := range segs {
		sr, err := OpenSegment(seg)
		if err != nil {
			t.Fatal(err)
		}
		for {
			start := sr.Offset()
			lsn, payload, err := sr.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if want := fmt.Sprintf("seg-%04d", lsn-1); string(payload) != want {
				t.Errorf("lsn %d payload = %q, want %q", lsn, payload, want)
			}
			lsns = append(lsns, lsn)
			offsets = append(offsets, start)
			segOf = append(segOf, seg)
		}
		sr.Close()
	}
	if len(lsns) != n {
		t.Fatalf("read %d records, want %d", len(lsns), n)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want dense from 1", i, lsn)
		}
	}

	// Resume mid-segment at a recorded frame boundary.
	mid := n / 2
	sr, err := OpenSegmentAt(segOf[mid], offsets[mid], lsns[mid])
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	lsn, payload, err := sr.Next()
	if err != nil {
		t.Fatalf("resumed Next: %v", err)
	}
	if lsn != lsns[mid] {
		t.Errorf("resumed at LSN %d, want %d", lsn, lsns[mid])
	}
	if want := fmt.Sprintf("seg-%04d", lsn-1); string(payload) != want {
		t.Errorf("resumed payload = %q, want %q", payload, want)
	}
}

// TestSegmentDamagePlacement pins the damage contract the shared
// reader must preserve for every consumer: a torn or corrupt tail on
// the FINAL segment is a crash artifact (replay skips it cleanly,
// reporting Truncated), while the same damage mid-log is real data
// loss and must error.
func TestSegmentDamagePlacement(t *testing.T) {
	const n = 40

	corruptLastRecord := func(t *testing.T, path string) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// Flip a byte near the end: payload corruption → CRC mismatch.
		if _, err := f.WriteAt([]byte{0xff}, st.Size()-2); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("tail damage skips", func(t *testing.T) {
		dir := t.TempDir()
		segs := buildMultiSegment(t, dir, n)
		corruptLastRecord(t, segs[len(segs)-1].Path)

		var got int
		info, err := DirSource{Dir: dir}.Replay(0, func(uint64, []byte) error {
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("tail damage must replay cleanly, got error: %v", err)
		}
		if !info.Truncated || info.TailError == nil {
			t.Fatalf("info = %+v, want Truncated with a TailError", info)
		}
		var cre *CorruptRecordError
		if !errors.As(info.TailError, &cre) {
			t.Fatalf("TailError = %v (%T), want *CorruptRecordError", info.TailError, info.TailError)
		}
		if got >= n || got == 0 {
			t.Fatalf("delivered %d records, want a non-empty strict prefix of %d", got, n)
		}
	})

	t.Run("mid-log damage errors", func(t *testing.T) {
		dir := t.TempDir()
		segs := buildMultiSegment(t, dir, n)
		corruptLastRecord(t, segs[1].Path) // sealed middle segment

		_, err := DirSource{Dir: dir}.Replay(0, func(uint64, []byte) error { return nil })
		if err == nil {
			t.Fatal("mid-log damage must error, got nil")
		}
		var cre *CorruptRecordError
		if !errors.As(err, &cre) {
			t.Fatalf("error = %v (%T), want to unwrap to *CorruptRecordError", err, err)
		}
		if cre.Path != segs[1].Path {
			t.Errorf("damage reported in %s, want %s", cre.Path, segs[1].Path)
		}
	})
}

// TestLeftoverIndexFilesIgnored: older binaries left wal-NNN.idx files
// (a derived audit index, since deleted) beside the segments. The
// journal neither reads nor owns them: the directory scan, reopening,
// replay and compaction all behave as if they were not there, and
// compaction does not touch them.
func TestLeftoverIndexFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	segs := buildMultiSegment(t, dir, 40)
	leftover := func(s SegmentInfo) string { return s.Path[:len(s.Path)-len(segSuffix)] + ".idx" }
	for _, s := range segs {
		if err := os.WriteFile(leftover(s), []byte("stale derived index"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := Segments(dir); err != nil || len(got) != len(segs) {
		t.Fatalf("Segments with leftovers = %d segments, %v; want %d", len(got), err, len(segs))
	}
	info, err := DirSource{Dir: dir}.Replay(0, func(uint64, []byte) error { return nil })
	if err != nil || info.Records != 40 || info.Segments != len(segs) || info.SegmentsRead != len(segs) || info.First != 1 {
		t.Fatalf("replay with leftovers: %+v, %v", info, err)
	}
	w := openTest(t, dir, ModeSync, 256)
	defer w.Close()
	if w.LastLSN() != 40 {
		t.Fatalf("reopened journal ends at %d, want 40", w.LastLSN())
	}
	if removed := w.TruncateBefore(segs[len(segs)-1].FirstLSN - 1); removed == 0 {
		t.Fatal("TruncateBefore removed nothing")
	}
	for _, s := range segs {
		if _, err := os.Stat(leftover(s)); err != nil {
			t.Errorf("compaction touched a file the journal does not own: %v", err)
		}
	}
}

// TestReplayStopsAtSentinel pins what a bounded reader (an audit query,
// an as-of reconstruction) relies on: an error from the callback ends
// the pass, comes back as is, and the counts say how far the pass got —
// segments wholly below the start point and segments past the stop are
// never opened.
func TestReplayStopsAtSentinel(t *testing.T) {
	dir := t.TempDir()
	segs := buildMultiSegment(t, dir, 40)
	stop := errors.New("stop")
	from, to := segs[1].FirstLSN+1, segs[2].FirstLSN-1 // inside the second segment
	var got []uint64
	info, err := DirSource{Dir: dir}.Replay(from-1, func(lsn uint64, _ []byte) error {
		got = append(got, lsn)
		if lsn == to {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("Replay error = %v, want the callback's sentinel itself", err)
	}
	if len(got) != int(to-from+1) || got[0] != from || got[len(got)-1] != to {
		t.Fatalf("delivered %v, want %d..%d", got, from, to)
	}
	if info.Segments != len(segs) || info.SegmentsRead != 1 || info.First != from || info.Records != int64(len(got)) {
		t.Fatalf("info = %+v, want 1 of %d segments read, first %d, %d records", info, len(segs), from, len(got))
	}
}

// TestSegmentReaderStream reads a segment the way a follower reads the
// replication stream, from an io.Reader: every record comes back with
// its LSN and stored frame, a clean end is io.EOF, a body cut inside a
// payload and a flipped payload bit are *CorruptRecordErrors.
func TestSegmentReaderStream(t *testing.T) {
	w := openTest(t, t.TempDir(), ModeOff, 1<<20)
	payloads := [][]byte{[]byte("a"), bytes.Repeat([]byte{0xAB}, 300), []byte("final")}
	for _, p := range payloads {
		if _, err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(w.Dir())
	if err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	// A stream from LSN 41 is the same frames behind a different header.
	hdr := SegmentHeader(41)
	body := append(hdr[:], seg[segHeaderSize:]...)

	r, err := NewSegmentReader(bytes.NewReader(body), "stream")
	if err != nil {
		t.Fatal(err)
	}
	if r.NextLSN() != 41 {
		t.Fatalf("stream numbers records from %d, want the header's 41", r.NextLSN())
	}
	for i, p := range payloads {
		start := r.Offset()
		lsn, got, err := r.Next()
		if err != nil || lsn != uint64(41+i) || !bytes.Equal(got, p) {
			t.Fatalf("record %d: lsn %d, %d bytes, %v", i, lsn, len(got), err)
		}
		if !bytes.Equal(r.Frame(), body[start:r.Offset()]) {
			t.Fatalf("record %d: Frame is not the stored bytes", i)
		}
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("clean end = %v, want io.EOF", err)
	}

	damaged := func(name string, b []byte, reason string) {
		t.Helper()
		r, err := NewSegmentReader(bytes.NewReader(b), "stream")
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, _, err = r.Next()
		}
		var cre *CorruptRecordError
		if !errors.As(err, &cre) || !strings.HasPrefix(cre.Reason, reason) {
			t.Fatalf("%s: %v, want a *CorruptRecordError (%s)", name, err, reason)
		}
	}
	damaged("cut inside the last payload", body[:len(body)-3], "torn record payload")
	flipped := bytes.Clone(body)
	flipped[segHeaderSize+recHeaderSize] ^= 0x01
	damaged("flipped payload bit", flipped, "CRC mismatch")
}

package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentReader fuzzes the one decoder under crash recovery,
// follower tailing and every audit query, offline rebuild included: arbitrary
// bytes as a segment file, read through OpenSegment/Next and through
// DirSource.Replay, and as a replication stream body, read through
// NewSegmentReader over a bytes.Reader. None may panic. A record the
// reader yields is a record the writer wrote: appending the yielded
// payloads to a fresh journal reproduces the input's frames byte for
// byte, Next stops at the first byte that is not such a frame (io.EOF
// exactly at the end of the file, a *CorruptRecordError at that offset
// otherwise), the stream reader yields the same records, frames and
// offsets and ends the same way, and the replay delivers the same
// records and calls the same tail torn.
//
// The committed corpus (testdata/fuzz/FuzzSegmentReader) holds a valid
// three-record segment, the same cut inside a frame header and inside a
// payload, with a flipped payload bit, a zero and an oversized length
// prefix, trailing garbage, a bare header, a short header, a bad magic
// and the empty file; and stream-shaped bodies starting at LSN 1000,
// whole and cut inside the segment header, a frame header and a payload.
func FuzzSegmentReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segPrefix+"0000000000000001"+segSuffix)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		headerOK := len(data) >= segHeaderSize && string(data[:8]) == segMagic
		var first uint64
		if headerOK {
			first = binary.LittleEndian.Uint64(data[8:])
		}
		sr, err := OpenSegment(SegmentInfo{Path: path, Index: 1, FirstLSN: first})
		if (err == nil) != headerOK {
			t.Fatalf("OpenSegment error = %v on a header that is valid=%v", err, headerOK)
		}
		stream, serr := NewSegmentReader(bytes.NewReader(data), "stream")
		if (serr == nil) != headerOK {
			t.Fatalf("NewSegmentReader error = %v on a header that is valid=%v", serr, headerOK)
		}
		if err != nil {
			return
		}
		defer sr.Close()
		if stream.NextLSN() != first {
			t.Fatalf("stream header first LSN %d, file header %d", stream.NextLSN(), first)
		}

		var payloads [][]byte
		var tail, streamTail error
		for {
			lsn, payload, err := sr.Next()
			slsn, spayload, serr := stream.Next()
			if (err == nil) != (serr == nil) || errors.Is(err, io.EOF) != errors.Is(serr, io.EOF) || sr.Offset() != stream.Offset() {
				t.Fatalf("record %d: file reader (%v) at %d, stream reader (%v) at %d", len(payloads), err, sr.Offset(), serr, stream.Offset())
			}
			if err != nil {
				tail, streamTail = err, serr
				break
			}
			if want := first + uint64(len(payloads)); lsn != want || slsn != want {
				t.Fatalf("record %d has LSN %d (stream %d), want %d", len(payloads), lsn, slsn, want)
			}
			start := sr.Offset() - int64(len(sr.Frame()))
			if !bytes.Equal(spayload, payload) || !bytes.Equal(stream.Frame(), data[start:sr.Offset()]) {
				t.Fatalf("record %d: the stream reader's frame is not the bytes at %d..%d", len(payloads), start, sr.Offset())
			}
			payloads = append(payloads, bytes.Clone(payload))
		}
		end := sr.Offset()
		var cre *CorruptRecordError
		switch {
		case errors.Is(tail, io.EOF):
			if end != int64(len(data)) {
				t.Fatalf("clean end at offset %d of a %d-byte segment", end, len(data))
			}
		case errors.As(tail, &cre):
			var scre *CorruptRecordError
			if !errors.As(streamTail, &scre) || scre.Offset != cre.Offset || scre.Reason != cre.Reason {
				t.Fatalf("file reader reports %v, stream reader %v", tail, streamTail)
			}
			if cre.Offset != end || end > int64(len(data)) {
				t.Fatalf("damage reported at %d, reader stopped at %d, file has %d bytes", cre.Offset, end, len(data))
			}
		default:
			t.Fatalf("Next ended with %v, want io.EOF or a *CorruptRecordError", tail)
		}

		// What the reader accepted is what the writer writes.
		w, err := Open(Options{Dir: t.TempDir(), Mode: ModeOff, SegmentBytes: 1 << 40})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := w.Append(p); err != nil {
				t.Fatalf("the writer rejects a payload the reader yielded: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := Segments(w.Dir())
		if err != nil || len(segs) != 1 {
			t.Fatalf("rewritten journal: %d segments, %v", len(segs), err)
		}
		rewritten, err := os.ReadFile(segs[0].Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten[segHeaderSize:], data[segHeaderSize:end]) {
			t.Fatalf("re-framing %d yielded records does not reproduce the accepted %d bytes", len(payloads), end-segHeaderSize)
		}

		// The replay over the same file agrees record for record. (LSNs
		// start at 1: a header claiming 0, or one about to wrap, has no
		// meaningful "after" to replay from.)
		if first == 0 || first > 1<<62 {
			return
		}
		n := 0
		info, err := DirSource{Dir: dir}.Replay(0, func(lsn uint64, payload []byte) error {
			if n >= len(payloads) || lsn != first+uint64(n) || !bytes.Equal(payload, payloads[n]) {
				t.Fatalf("replay record %d (lsn %d) is not the reader's", n, lsn)
			}
			n++
			return nil
		})
		if err != nil || n != len(payloads) || info.Truncated != (cre != nil) {
			t.Fatalf("replay: %d of %d records, truncated=%v (reader's tail: %v), err %v", n, len(payloads), info.Truncated, tail, err)
		}
	})
}

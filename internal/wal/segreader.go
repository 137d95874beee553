package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// SegmentInfo describes one journal segment file on disk — the
// exported form of the directory scan, shared by replay, tailing, and
// the audit engine.
type SegmentInfo struct {
	// Path is the segment file's location.
	Path string
	// Index is the segment's sequence number (from the filename).
	Index uint64
	// FirstLSN is the LSN of the segment's first record (from the
	// header). Records are dense: record i has LSN FirstLSN+i.
	FirstLSN uint64
}

// Segments lists the journal segments in dir in LSN order, read-only —
// the offline entry point for DirSource replay and audit queries.
// Non-segment files (snapshots, whatever else shares the directory) are
// ignored.
func Segments(dir string) ([]SegmentInfo, error) {
	segs, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	infos := make([]SegmentInfo, len(segs))
	for i, s := range segs {
		infos[i] = SegmentInfo{Path: s.path, Index: s.index, FirstLSN: s.firstLSN}
	}
	return infos, nil
}

// CorruptRecordError reports a torn or corrupt record frame inside a
// segment: a short header or payload, an absurd length prefix, or a
// CRC mismatch. Whether it is fatal depends on where it sits — at the
// tail of the final segment it is the expected crash artifact
// (truncate and move on); anywhere else it is real data loss. Callers
// detect it with errors.As and decide.
type CorruptRecordError struct {
	// Path is the damaged segment file.
	Path string
	// Offset is the byte offset of the damaged frame.
	Offset int64
	// Reason describes the damage ("torn record header", "CRC
	// mismatch: stored x, computed y", ...).
	Reason string
	// Err is the underlying I/O error, when one exists.
	Err error
}

// Error implements the error interface.
func (e *CorruptRecordError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wal: %s: %s at offset %d: %v", e.Path, e.Reason, e.Offset, e.Err)
	}
	return fmt.Sprintf("wal: %s: %s at offset %d", e.Path, e.Reason, e.Offset)
}

// Unwrap exposes the underlying I/O error to errors.Is.
func (e *CorruptRecordError) Unwrap() error { return e.Err }

// SegmentReader iterates one segment's records in LSN order. It is the
// single framing decoder all journal consumers share: Replay and
// DirSource wrap it per segment (recovery and every audit query go
// through those), and the tail Cursor resumes it at a saved offset.
//
// Next returns io.EOF at a clean frame boundary (the segment's current
// end — an active segment may grow past it later) and a
// *CorruptRecordError at damage; the caller chooses whether damage is
// a torn tail to truncate or mid-log loss to fail on.
type SegmentReader struct {
	path    string
	f       *os.File
	br      *bufio.Reader
	nextLSN uint64
	off     int64
	scratch []byte
}

// OpenSegment opens a segment at its first record, validating the
// 16-byte header (magic and first-LSN agreement with the directory
// scan).
func OpenSegment(info SegmentInfo) (*SegmentReader, error) {
	f, err := os.Open(info.Path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %s: short segment header: %w", info.Path, err)
	}
	if string(hdr[:8]) != segMagic {
		f.Close()
		return nil, fmt.Errorf("wal: %s: bad segment magic %q", info.Path, hdr[:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != info.FirstLSN {
		f.Close()
		return nil, fmt.Errorf("wal: %s: header first LSN %d, directory scan said %d", info.Path, got, info.FirstLSN)
	}
	return &SegmentReader{path: info.Path, f: f, br: br, nextLSN: info.FirstLSN, off: segHeaderSize}, nil
}

// OpenSegmentAt opens a segment positioned at a known frame boundary:
// offset must be a value previously returned by Offset and nextLSN the
// LSN of the record starting there.
// The header is not re-validated — the caller already did when the
// offset was learned.
func OpenSegmentAt(info SegmentInfo, offset int64, nextLSN uint64) (*SegmentReader, error) {
	f, err := os.Open(info.Path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &SegmentReader{
		path:    info.Path,
		f:       f,
		br:      bufio.NewReaderSize(f, 1<<16),
		nextLSN: nextLSN,
		off:     offset,
	}, nil
}

// Next returns the next record. The payload slice is reused between
// calls — consume or copy it before calling Next again. A clean end at
// a frame boundary returns io.EOF; damage returns a
// *CorruptRecordError positioned at the bad frame.
func (r *SegmentReader) Next() (lsn uint64, payload []byte, err error) {
	var hdr [recHeaderSize]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, &CorruptRecordError{Path: r.path, Offset: r.off, Reason: "torn record header", Err: err}
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > MaxRecordSize {
		return 0, nil, &CorruptRecordError{Path: r.path, Offset: r.off, Reason: fmt.Sprintf("corrupt record length %d", length)}
	}
	if cap(r.scratch) < int(length) {
		r.scratch = make([]byte, length)
	}
	payload = r.scratch[:length]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		if err == io.EOF {
			// A whole header with no payload byte behind it is a torn
			// frame too; left as io.EOF it would unwrap to a clean end.
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, &CorruptRecordError{Path: r.path, Offset: r.off, Reason: "torn record payload", Err: err}
	}
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return 0, nil, &CorruptRecordError{Path: r.path, Offset: r.off, Reason: fmt.Sprintf("CRC mismatch: stored %08x, computed %08x", crc, got)}
	}
	lsn = r.nextLSN
	r.nextLSN++
	r.off += int64(recHeaderSize) + int64(length)
	return lsn, payload, nil
}

// Offset returns the byte offset of the next unread frame — a valid
// resume point for OpenSegmentAt.
func (r *SegmentReader) Offset() int64 { return r.off }

// Close releases the underlying file.
func (r *SegmentReader) Close() error { return r.f.Close() }

// detachScratch hands the reader's payload buffer back to a pooling
// caller (the tail Cursor keeps one across readSegment calls).
func (r *SegmentReader) detachScratch() []byte { return r.scratch }

// attachScratch seeds the payload buffer from a pooling caller.
func (r *SegmentReader) attachScratch(b []byte) { r.scratch = b }

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
// ignored. On a live journal the list may still hold segments
// compaction detached but has not unlinked yet; a segment unlinked
// while it is being listed is left out with every older one, and so is
// a newest segment whose header a roll has not written yet.
func Segments(dir string) ([]SegmentInfo, error) {
	segs, _, err := scanDir(dir)
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
	// Path names the damaged segment: its file, or the name a stream
	// reader was given.
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
// through those), the tail Cursor resumes it at a saved offset, and a
// follower reads the replication stream — which is a segment — with it.
//
// Next returns io.EOF at a clean frame boundary (the segment's current
// end — an active segment may grow past it later) and a
// *CorruptRecordError at damage; the caller chooses whether damage is
// a torn tail to truncate or mid-log loss to fail on.
type SegmentReader struct {
	path    string
	f       *os.File // nil over a stream the caller owns
	br      *bufio.Reader
	nextLSN uint64
	off     int64
	// frame holds the last record read as stored: its 8-byte header,
	// then its payload. Its backing array is reused between calls.
	frame []byte
}

// maxKeptFrame is the largest read buffer a SegmentReader or Cursor
// keeps between records; rank and reward records are a few hundred
// bytes.
const maxKeptFrame = 64 << 10

// SegmentHeader encodes a segment's 16-byte header: the magic, then the
// LSN of its first record. The journal writes it at the head of every
// segment file, and the replication stream at the head of every body.
func SegmentHeader(firstLSN uint64) [segHeaderSize]byte {
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], firstLSN)
	return hdr
}

// readSegmentHeader decodes the header SegmentHeader wrote and returns
// the first LSN; name labels errors.
func readSegmentHeader(r io.Reader, name string) (firstLSN uint64, err error) {
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: %s: short segment header: %w", name, err)
	}
	if string(hdr[:8]) != segMagic {
		return 0, fmt.Errorf("wal: %s: bad segment magic %q", name, hdr[:8])
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// tailReadBuffer is the read buffer of a reader OpenSegmentAt opens, a
// tail cursor's: a cursor lives as long as its follower and reads what
// was appended since its last wake, usually a few records of a few
// hundred bytes, so it keeps 4 KiB where NewSegmentReader's replay and
// stream readers, which read whole segments, keep 64 KiB. A record
// longer than the buffer still reads whole.
const tailReadBuffer = 4 << 10

// NewSegmentReader reads a segment from r — a replication stream body,
// or any other reader positioned at a segment header — labelling
// errors with name. The header's first LSN numbers the records
// (NextLSN reports it before the first Next). Close does not close r.
func NewSegmentReader(r io.Reader, name string) (*SegmentReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	first, err := readSegmentHeader(br, name)
	if err != nil {
		return nil, err
	}
	return &SegmentReader{path: name, br: br, nextLSN: first, off: segHeaderSize}, nil
}

// OpenSegment opens a segment at its first record, validating the
// 16-byte header (magic and first-LSN agreement with the directory
// scan).
func OpenSegment(info SegmentInfo) (*SegmentReader, error) {
	f, err := os.Open(info.Path)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	r, err := NewSegmentReader(f, info.Path)
	if err == nil && r.nextLSN != info.FirstLSN {
		err = fmt.Errorf("wal: %s: header first LSN %d, directory scan said %d", info.Path, r.nextLSN, info.FirstLSN)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r.f = f
	return r, nil
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
		br:      bufio.NewReaderSize(f, tailReadBuffer),
		nextLSN: nextLSN,
		off:     offset,
	}, nil
}

// Next returns the next record. The payload slice is reused between
// calls — consume or copy it before calling Next again. A clean end at
// a frame boundary returns io.EOF; damage returns a
// *CorruptRecordError positioned at the bad frame.
func (r *SegmentReader) Next() (lsn uint64, payload []byte, err error) {
	if cap(r.frame) < recHeaderSize || cap(r.frame) > maxKeptFrame {
		// A long-lived reader (a follower's stream) does not pin the
		// buffer one large record (a hint rollover) grew.
		r.frame = make([]byte, 0, 512)
	}
	hdr := r.frame[:recHeaderSize]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
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
	n := recHeaderSize + int(length)
	if cap(r.frame) < n {
		grown := make([]byte, n)
		copy(grown, hdr)
		r.frame = grown
	}
	r.frame = r.frame[:n]
	payload = r.frame[recHeaderSize:]
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
	r.off += int64(n)
	return lsn, payload, nil
}

// Frame returns the record Next last returned as stored — its length
// and CRC header, then its payload — sharing Next's reused buffer.
// Shipping it copies the journal's bytes without checksumming again.
func (r *SegmentReader) Frame() []byte { return r.frame }

// Offset returns the byte offset of the next unread frame — a valid
// resume point for OpenSegmentAt.
func (r *SegmentReader) Offset() int64 { return r.off }

// NextLSN returns the LSN the next record will carry.
func (r *SegmentReader) NextLSN() uint64 { return r.nextLSN }

// Close releases the underlying file; over a stream it does nothing.
func (r *SegmentReader) Close() error {
	if r.f == nil {
		return nil
	}
	return r.f.Close()
}

package wal

import (
	"errors"
	"fmt"
	"io"
)

// ReplayInfo summarizes one replay pass.
type ReplayInfo struct {
	// Segments is how many segment files the journal held; SegmentsRead
	// how many of them the pass opened. The rest were skipped on their
	// headers alone — wholly at or below the start point — or lay past
	// the record at which the callback stopped the pass.
	Segments, SegmentsRead int
	// Records is how many records were delivered to the callback; First
	// is the LSN of the first of them (0 when none was).
	Records int64
	First   uint64
	// Skipped is how many records were below or at the requested start
	// LSN and not delivered.
	Skipped int64
	// Truncated reports that the final segment ended in a torn or
	// corrupt record; everything before the damage was delivered, the
	// damaged tail was skipped (the crash-recovery contract).
	Truncated bool
	// TailError describes the damage when Truncated is set.
	TailError error
}

// Source is anything a model can be replayed from: an open *WAL or an
// offline DirSource.
type Source interface {
	// Replay calls fn for every record with LSN > afterLSN, in order. A
	// torn or corrupt tail on the final segment ends the replay cleanly
	// (reported in ReplayInfo); the same damage mid-log is an error —
	// that is real data loss, not a crash artifact. An error from fn
	// ends the pass and is returned as is, beside the counts so far: a
	// reader that wants a prefix returns a sentinel at its last record.
	Replay(afterLSN uint64, fn func(lsn uint64, payload []byte) error) (ReplayInfo, error)
}

// DirSource replays a journal directory read-only, without opening it
// for appends — the one reader under every audit query, live or
// offline, the offline `qoserved audit asof` rebuild among them.
type DirSource struct {
	Dir string
}

// Replay implements Source.
func (d DirSource) Replay(afterLSN uint64, fn func(lsn uint64, payload []byte) error) (ReplayInfo, error) {
	segs, _, err := scanDir(d.Dir)
	if err != nil {
		return ReplayInfo{}, err
	}
	return replaySegments(segs, afterLSN, fn)
}

// Replay implements Source on the open journal. It flushes buffered
// appends first so every appended record is visible; intended for the
// startup window before concurrent appends begin.
func (w *WAL) Replay(afterLSN uint64, fn func(lsn uint64, payload []byte) error) (ReplayInfo, error) {
	segs, err := w.flushedSegments(nil)
	if err != nil {
		return ReplayInfo{}, err
	}
	return replaySegments(segs, afterLSN, fn)
}

// flushedSegments flushes buffered appends, so every appended record is
// readable from the files, and appends the segment list to dst.
func (w *WAL) flushedSegments(dst []segment) ([]segment, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return dst, w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return dst, err
	}
	return append(dst, w.segs...), nil
}

func replaySegments(segs []segment, afterLSN uint64, fn func(lsn uint64, payload []byte) error) (ReplayInfo, error) {
	info := ReplayInfo{Segments: len(segs)}
	cb := func(lsn uint64, payload []byte) error {
		if lsn <= afterLSN {
			info.Skipped++
			return nil
		}
		if info.Records == 0 {
			info.First = lsn
		}
		info.Records++
		return fn(lsn, payload)
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		// The next segment's first LSN bounds this one: a sealed segment
		// wholly at or below the start point is skipped without reading.
		if !last && segs[i+1].firstLSN > seg.firstLSN && segs[i+1].firstLSN-1 <= afterLSN {
			info.Skipped += int64(segs[i+1].firstLSN - seg.firstLSN)
			continue
		}
		info.SegmentsRead++
		_, _, tailErr, err := scanSegment(seg.path, seg.firstLSN, cb)
		if err != nil {
			return info, err
		}
		if tailErr != nil {
			if !last {
				return info, fmt.Errorf("wal: segment %s damaged mid-log: %w", seg.path, tailErr)
			}
			info.Truncated = true
			info.TailError = tailErr
		}
	}
	return info, nil
}

// Cursor is a stateful tail reader over an open journal: Next delivers
// records in LSN order and keeps the segment it stopped in open, its
// reader at the exact frame it stopped at, so each call reads on from
// there — unlike Replay, which re-scans the segment containing its
// start point from the beginning on every call. This is what keeps a
// replication stream O(new records) per long-poll wake instead of
// O(active segment), with no file to open and no buffer to allocate
// while it stays in one segment.
//
// The caller must only ask for records it knows are flushed (the
// stream handler caps at SyncedLSN); within that bound the cursor
// never sees a torn record. Its reader may buffer bytes past that
// bound — part of a record still being written — but segments are
// append-only, so those bytes are the ones the next call reads. A
// segment that compaction detaches while the cursor is in it stays
// readable through the open file until the cursor moves on. A cursor is
// owned by one goroutine, and its owner Closes it.
type Cursor struct {
	w *WAL
	// nextLSN is the next record to deliver; pos is its byte offset in
	// seg once located.
	nextLSN uint64
	seg     segment
	pos     int64
	located bool
	// sr reads seg from pos: opened on the first read there, closed
	// when the cursor advances past seg, and nil then.
	sr *SegmentReader
	// segs is the cursor's own copy of the journal's segment list,
	// refreshed by each Next.
	segs []segment
	// scratch holds the read buffer between calls (see readSegment).
	scratch []byte
}

// NewCursor positions a tail cursor just after afterLSN. Locating the
// byte offset scans at most one segment once; every subsequent Next is
// proportional to the records it delivers.
func (w *WAL) NewCursor(afterLSN uint64) *Cursor {
	return &Cursor{w: w, nextLSN: afterLSN + 1}
}

// Next delivers records with LSN in [cursor position, upTo] to fn, in
// order, and advances the cursor past them. It returns the number
// delivered. Each record arrives as its stored frame
// ([len][CRC32-C][payload], CRC already verified), in a slice reused
// between records — fn must consume or copy it before returning. A
// removed segment at the cursor's position (compaction passed the
// consumer — the wal_gap condition) or damage below upTo returns an
// error; the consumer must restart from a fresh position.
func (c *Cursor) Next(upTo uint64, fn func(lsn uint64, frame []byte) error) (int, error) {
	if c.nextLSN > upTo {
		return 0, nil
	}
	if err := c.refresh(); err != nil {
		return 0, err
	}
	if !c.located {
		if err := c.locate(); err != nil {
			return 0, err
		}
	}
	delivered := 0
	for c.nextLSN <= upTo {
		n, err := c.readSegment(upTo, fn)
		delivered += n
		if err != nil {
			return delivered, err
		}
		if c.nextLSN > upTo {
			break
		}
		// Current segment exhausted below upTo: advance to the segment
		// that starts at the cursor's LSN.
		if !c.advance() {
			// The records exist (<= upTo <= SyncedLSN) but no segment
			// starts where we need one — the snapshot predates a roll;
			// refresh and retry once, else report the gap.
			if err := c.refresh(); err != nil {
				return delivered, err
			}
			if !c.advance() {
				return delivered, fmt.Errorf("wal: no segment holds LSN %d (compacted past the cursor)", c.nextLSN)
			}
		}
	}
	return delivered, nil
}

// Close releases the segment file the cursor holds open. The cursor
// must not be used after it.
func (c *Cursor) Close() error {
	if c.sr == nil {
		return nil
	}
	err := c.sr.Close()
	c.sr = nil
	return err
}

// advance moves the cursor to the start of the later segment in its
// list that begins at its next LSN, and reports whether there was one.
func (c *Cursor) advance() bool {
	for _, s := range c.segs {
		if s.firstLSN == c.nextLSN && s.index > c.seg.index {
			c.Close()
			c.seg, c.pos = s, segHeaderSize
			return true
		}
	}
	return false
}

// refresh copies the journal's segment list into the cursor's own
// with buffered appends flushed, so everything up to SyncedLSN is
// readable from the files.
func (c *Cursor) refresh() (err error) {
	c.segs, err = c.w.flushedSegments(c.segs[:0])
	return err
}

// locate finds the segment and byte offset of c.nextLSN by scanning
// (once) the segment that contains it.
func (c *Cursor) locate() error {
	segs := c.segs
	idx := -1
	for i, s := range segs {
		if s.firstLSN <= c.nextLSN {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("wal: no segment holds LSN %d (compacted past the cursor)", c.nextLSN)
	}
	c.seg = segs[idx]
	target := c.nextLSN
	c.nextLSN = c.seg.firstLSN
	c.pos = segHeaderSize
	c.located = true
	if c.nextLSN == target {
		return nil
	}
	// Skip records below the target by reading through them.
	_, err := c.readSegment(target-1, func(uint64, []byte) error { return nil })
	if err != nil {
		return err
	}
	if c.nextLSN != target {
		return fmt.Errorf("wal: segment %s ends at LSN %d before cursor target %d", c.seg.path, c.nextLSN-1, target)
	}
	return nil
}

// readSegment reads records from the cursor's segment starting at its
// offset, delivering LSNs up to upTo. It stops cleanly at the
// segment's current end (more may be appended later) and returns how
// many records it delivered to fn.
func (c *Cursor) readSegment(upTo uint64, fn func(lsn uint64, frame []byte) error) (int, error) {
	if c.sr == nil {
		info := SegmentInfo{Path: c.seg.path, Index: c.seg.index, FirstLSN: c.seg.firstLSN}
		sr, err := OpenSegmentAt(info, c.pos, c.nextLSN)
		if err != nil {
			return 0, err
		}
		c.sr = sr
	}
	sr := c.sr
	sr.frame = c.scratch
	defer func() {
		// Take the reader's buffer back for the next call, unless one
		// large record (a hint rollover) grew it: a tail cursor lives as
		// long as its long-poll, and would pin that megabyte while idle.
		if c.scratch = sr.frame; cap(c.scratch) > maxKeptFrame {
			c.scratch = nil
		}
	}()
	delivered := 0
	for c.nextLSN <= upTo {
		lsn, _, rerr := sr.Next()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return delivered, nil // segment end (so far); caller advances or waits
			}
			// The reader may have stopped mid-frame: the next call
			// reopens the segment at the last whole record.
			c.Close()
			var cre *CorruptRecordError
			if errors.As(rerr, &cre) {
				// The caller only asks for records it knows are durable, so
				// any damage here is real loss, not a crash artifact.
				return delivered, fmt.Errorf("wal: record below the durable frontier damaged: %w", cre)
			}
			return delivered, rerr
		}
		c.nextLSN = lsn + 1
		c.pos = sr.Offset()
		delivered++
		if err := fn(lsn, sr.Frame()); err != nil {
			return delivered, err
		}
	}
	return delivered, nil
}

// scanSegment walks one segment file via the shared SegmentReader. It
// returns how many whole, valid records the segment holds and the byte
// offset just past the last one. tailErr describes a torn or corrupt
// tail (nil for a clean end); fn, when non-nil, receives every record
// in order.
func scanSegment(path string, firstLSN uint64, fn func(lsn uint64, payload []byte) error) (count int, validEnd int64, tailErr error, err error) {
	sr, err := OpenSegment(SegmentInfo{Path: path, FirstLSN: firstLSN})
	if err != nil {
		return 0, 0, nil, err
	}
	defer sr.Close()
	for {
		lsn, payload, rerr := sr.Next()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return count, sr.Offset(), nil, nil // clean end
			}
			var cre *CorruptRecordError
			if errors.As(rerr, &cre) {
				return count, sr.Offset(), cre, nil
			}
			return count, sr.Offset(), nil, rerr
		}
		count++
		if fn != nil {
			if err := fn(lsn, payload); err != nil {
				return count, sr.Offset(), nil, err
			}
		}
	}
}

// Package wal implements the durable reward journal: a segmented
// append-only log with CRC32-framed binary records, group-commit
// fsync batching, tail-corruption recovery, and prefix truncation for
// snapshot compaction. The package is payload-agnostic — record
// semantics (rank events, reward batches, train marks) live in
// qoadvisor/internal/bandit — so the log can carry any telemetry the
// serving stack needs to survive a crash.
//
// On-disk layout: the journal is a directory of numbered segment
// files, wal-<index>.seg. Each segment starts with a 16-byte header
// (8-byte magic, 8-byte little-endian first LSN) followed by records
// framed as
//
//	[uint32 payload length][uint32 CRC32-Castagnoli of payload][payload]
//
// Log sequence numbers (LSNs) are assigned densely from 1 at append
// time; a record's LSN is the segment's first LSN plus its index in
// the segment, so positions never need to be stored per record.
//
// Durability model: Append always just buffers (so hot paths — the
// bandit's rank logging under its event-log mutex — never wait on the
// disk); Commit(lsn) applies the configured mode. ModeSync blocks the
// caller until a group fsync covers lsn (concurrent committers share
// one fsync — the group-commit window is what keeps per-record sync
// cost amortized). ModeAsync returns immediately and lets the
// background committer flush on its time/count window. ModeOff never
// fsyncs at all (buffers still flush so readers see the data).
//
// Compaction model: TruncateBefore detaches the covered sealed segments
// under the journal mutex, and a second background goroutine, the
// reclaimer, unlinks their files and fsyncs the directory outside it.
// While the journal takes appends, neither an fsync nor an unlink runs
// under the mutex Append takes. Until the reclaimer gets to them a directory reader may still
// list detached segments; what stays on disk is always one contiguous
// run of segments, because unlinks go oldest first and stop at the
// first failure.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects the durability discipline Commit applies.
type Mode int

const (
	// ModeAsync (default): Commit returns immediately; the background
	// committer fsyncs on the group-commit window. A crash can lose at
	// most the last window of acknowledged records.
	ModeAsync Mode = iota
	// ModeSync: Commit blocks until the record is fsynced. Concurrent
	// commits share one fsync (group commit).
	ModeSync
	// ModeOff: no fsync ever — durability is whatever the OS page cache
	// survives. For benchmarks and tests.
	ModeOff
)

// String renders the flag form.
func (m Mode) String() string {
	switch m {
	case ModeSync:
		return "sync"
	case ModeOff:
		return "off"
	default:
		return "async"
	}
}

// ParseMode parses the flag form ("sync", "async", "off").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "sync":
		return ModeSync, nil
	case "async", "":
		return ModeAsync, nil
	case "off":
		return ModeOff, nil
	}
	return ModeAsync, fmt.Errorf("wal: unknown sync mode %q (want sync, async, or off)", s)
}

const (
	segMagic      = "QOWAL001"
	segHeaderSize = 16
	recHeaderSize = 8
	segPrefix     = "wal-"
	segSuffix     = ".seg"

	// MaxRecordSize bounds one payload; a length prefix beyond it is
	// treated as corruption, not an allocation request.
	MaxRecordSize = 16 << 20

	// DefaultSegmentBytes rolls segments at 64 MiB.
	DefaultSegmentBytes = 64 << 20
	// DefaultFlushEvery is the group-commit window: in async mode the
	// crash-loss bound for acknowledged records, in sync mode the
	// latency floor idle commits can wait. 5ms trades a slightly wider
	// async loss window for ~4x fewer fsyncs under rank-heavy load
	// (each in-window fsync steals ~0.2-0.4ms from the serving path on
	// a small host).
	DefaultFlushEvery = 5 * time.Millisecond
	// flushBatch forces a flush after this many buffered records even
	// inside the window, bounding buffered bytes under burst load.
	flushBatch = 1024
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options parameterizes Open.
type Options struct {
	// Dir is the journal directory (created if absent).
	Dir string
	// Mode is the Commit durability discipline.
	Mode Mode
	// SegmentBytes rolls to a new segment once the active one exceeds
	// this size (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// FS is what every disk change of the journal goes through (nil =
	// OS).
	FS FS
	// flushEvery is the group-commit window (0 = DefaultFlushEvery).
	// Only this package's tests shorten it.
	flushEvery time.Duration
}

// Stats is a point-in-time snapshot of the journal counters.
type Stats struct {
	Mode          string
	FirstLSN      uint64 // Window's first: oldest retained record, LastLSN+1 when none is
	LastLSN       uint64 // newest appended record (0 when empty)
	SyncedLSN     uint64 // newest record covered by a flush (+fsync outside ModeOff)
	Appends       int64
	AppendedBytes int64
	Syncs         int64
	Segments      int
	TruncatedSegs int64
}

// segment is one on-disk file of the journal.
type segment struct {
	path     string
	index    uint64
	firstLSN uint64
}

// WAL is an open journal. Safe for concurrent use.
type WAL struct {
	opts Options

	mu   sync.Mutex
	cond *sync.Cond // broadcast when syncedLSN advances or the WAL closes
	// wake broadcasts cond under mu: what a WaitLSN deadline or a done
	// context calls. Built once, so a wait allocates no closure for it.
	wake func()
	f    File // active segment
	bw   *bufio.Writer
	hdr  [recHeaderSize]byte // Append's record header: a local would escape through bw.Write
	segs []segment           // ascending; last is active

	nextLSN   uint64
	syncedLSN uint64
	segBytes  int64 // bytes written to the active segment
	unflushed int   // records buffered since the last flush kick
	syncing   bool  // an fsync is in flight outside mu (single-flight)
	closed    bool
	err       error // latched fatal I/O error: the journal is fail-stop

	// tornBytes/tornErr record tail damage Open truncated away (a crash
	// mid-append); immutable after Open.
	tornBytes int64
	tornErr   error

	appends       int64
	appendedBytes int64
	syncs         int64
	truncatedSegs int64

	// reclaim queues the segments TruncateBefore detached and the
	// reclaimer has not unlinked yet, oldest first. The unlinks run
	// outside mu.
	reclaim []segment

	// syncObs, when set, observes each fsync's wall duration (the
	// group-commit stall budget) — the serving layer points it at a
	// latency histogram. Stored atomically so it can be attached after
	// Open without racing the committer.
	syncObs atomic.Pointer[func(time.Duration)]

	// failAppend, when set, is the append fault FailAppends installed;
	// nil in production.
	failAppend atomic.Pointer[func(payload []byte) error]

	flushCh   chan struct{}
	reclaimCh chan struct{} // kicks the reclaimer
	done      chan struct{}
	wg        sync.WaitGroup
}

// SetSyncObserver installs a callback observing every fsync's
// duration (called off the append path, on the committer or a
// sync-mode Commit waiter). Pass the observing end of a latency
// histogram; nil removes the observer.
func (w *WAL) SetSyncObserver(fn func(time.Duration)) { w.syncObs.Store(&fn) }

// FailAppends installs fn as the append fault: every Append consults it
// before any journal state changes, and a non-nil return fails that
// append with no LSN consumed. Unlike a real I/O error it does not latch
// the journal fail-stop, so a test can open a fault window and close it
// again (nil removes fn). fn runs on the appending goroutine, outside
// the journal mutex, and must be safe for concurrent use.
func (w *WAL) FailAppends(fn func(payload []byte) error) { w.failAppend.Store(&fn) }

// FS returns the file system the journal writes through: what a
// snapshot published beside it is written with.
func (w *WAL) FS() FS { return w.opts.FS }

// observeSync times one fsync call through the installed observer.
func (w *WAL) observeSync(f File) error {
	obs := w.syncObs.Load()
	if obs == nil || *obs == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	(*obs)(time.Since(start))
	return err
}

// Open opens (or creates) the journal in opts.Dir, recovering from a
// torn tail: a final record cut mid-write is truncated away so appends
// resume at a clean boundary. Returns the WAL positioned after the
// last valid record. A journal it creates has its first segment's
// directory entry fsynced (outside ModeOff) before Open returns, as a
// roll fsyncs the next one's before any of its records is acknowledged.
//
// It also recovers from a crash inside a roll, between creating the next
// segment and writing its header (or inside the first Open's create): the
// newest segment then has no whole header and holds no record. Open
// removes that stub, fsyncs the directory and resumes on the last sealed
// segment, whose next roll creates the stub's index afresh. Only the
// segment a roll would have created is a stub: one at another index is
// an error, as is a short header below the newest segment.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.flushEvery <= 0 {
		opts.flushEvery = DefaultFlushEvery
	}
	if opts.FS == nil {
		opts.FS = OS{}
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	segs, newborn, err := scanDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	if newborn != nil {
		next := uint64(1)
		if len(segs) > 0 {
			next = segs[len(segs)-1].index + 1
		}
		if newborn.index != next {
			return nil, fmt.Errorf("wal: segment %s has no header and is not the segment after %d", newborn.path, next-1)
		}
		if err := opts.FS.Remove(newborn.path); err != nil {
			return nil, fmt.Errorf("wal: removing header-less segment: %w", err)
		}
		if err := opts.FS.SyncDir(opts.Dir); err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
	}
	w := &WAL{
		opts:      opts,
		segs:      segs,
		flushCh:   make(chan struct{}, 1),
		reclaimCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.wake = func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}

	if len(segs) == 0 {
		w.nextLSN = 1
		if err := w.openSegmentLocked(1, 1); err != nil {
			return nil, err
		}
		if opts.Mode != ModeOff {
			if err := opts.FS.SyncDir(opts.Dir); err != nil {
				w.f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
	} else {
		last := segs[len(segs)-1]
		count, validEnd, tailErr, serr := scanSegment(last.path, last.firstLSN, nil)
		if serr != nil {
			return nil, serr
		}
		fi, err := os.Stat(last.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		if fi.Size() > validEnd {
			// Torn tail from a crash mid-append: the reopen cuts back to
			// the last whole record so new appends start at a clean
			// frame. The damage is recorded so the operator can be told
			// data past the durable frontier was discarded (TailDamage).
			w.tornBytes = fi.Size() - validEnd
			w.tornErr = tailErr
		}
		f, err := opts.FS.OpenAt(last.path, validEnd)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening %s: %w", last.path, err)
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, 1<<16)
		w.segBytes = validEnd
		w.nextLSN = last.firstLSN + uint64(count)
	}
	w.syncedLSN = w.nextLSN - 1

	w.wg.Add(2)
	go w.committer()
	go w.reclaimer()
	return w, nil
}

// scanDir lists and orders the journal's segment files. It reads a
// directory another process may be writing, so two transient states are
// not errors:
//   - A segment listed but gone by the time it is opened was unlinked by
//     compaction, which removes segments oldest first: it and every
//     segment below it are left out, so the list stays one contiguous
//     run.
//   - The newest segment may not have its header yet: a roll creates the
//     file and then writes the header. It holds no record and is left
//     out, returned as newborn: Open, which would append after it,
//     removes it.
func scanDir(dir string) (segs []segment, newborn *segment, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var cut uint64 // segments below this index were compacted away
	var short error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			cut = max(cut, idx+1)
			continue
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		first, err := readSegmentHeader(f, path)
		f.Close()
		if (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) && newborn == nil {
			newborn, short = &segment{path: path, index: idx}, err
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		segs = append(segs, segment{path: path, index: idx, firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for len(segs) > 0 && segs[0].index < cut {
		segs = segs[1:]
	}
	if newborn != nil && len(segs) > 0 && newborn.index < segs[len(segs)-1].index {
		return nil, nil, short // a short header below the newest segment is damage
	}
	for i := 1; i < len(segs); i++ {
		if segs[i].firstLSN < segs[i-1].firstLSN {
			return nil, nil, fmt.Errorf("wal: segment %s first LSN %d below predecessor's %d",
				segs[i].path, segs[i].firstLSN, segs[i-1].firstLSN)
		}
	}
	return segs, newborn, nil
}

// openSegmentLocked creates and switches to a fresh segment; callers
// hold mu (or are inside Open before the WAL is shared).
func (w *WAL) openSegmentLocked(index, firstLSN uint64) error {
	path := filepath.Join(w.opts.Dir, fmt.Sprintf("%s%016d%s", segPrefix, index, segSuffix))
	f, err := w.opts.FS.Create(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := SegmentHeader(firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.segBytes = segHeaderSize
	if len(w.segs) == 0 || w.segs[len(w.segs)-1].index != index {
		w.segs = append(w.segs, segment{path: path, index: index, firstLSN: firstLSN})
	}
	return nil
}

// maybeRoll seals the active segment and opens the next one when the
// size threshold is crossed. It runs on the committer goroutine, never
// on an appender: the swap to the fresh segment happens under mu (a
// few file-table operations, no disk sync), and the sealed file's
// fsync runs OUTSIDE the lock — appends continue into the new segment
// while the old one is made durable, so a segment roll never stalls
// the rank path. Overshoot past SegmentBytes is bounded by one
// group-commit window of appends (Append kicks the committer as soon
// as the threshold is crossed). A segment no record has landed in yet is
// never sealed, however small SegmentBytes is: every sealed segment
// covers at least one LSN.
func (w *WAL) maybeRoll() error {
	w.mu.Lock()
	for w.syncing && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil || w.closed || w.f == nil || w.segBytes < w.opts.SegmentBytes ||
		w.nextLSN == w.segs[len(w.segs)-1].firstLSN {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return w.failLocked(err)
	}
	old := w.f
	sealedLast := w.nextLSN - 1 // every record in the sealed segment
	next := w.segs[len(w.segs)-1].index + 1
	if err := w.openSegmentLocked(next, w.nextLSN); err != nil {
		// openSegmentLocked leaves w.f/w.bw untouched on failure, so
		// appends keep landing in the (oversized) old segment.
		return w.failLocked(err)
	}
	w.unflushed = 0
	w.syncing = true
	w.mu.Unlock()

	// The new segment's directory entry is made durable before any of
	// its records can be: a failed directory fsync latches the journal
	// like a failed segment fsync.
	var serr error
	if w.opts.Mode != ModeOff {
		if serr = w.observeSync(old); serr == nil {
			serr = w.opts.FS.SyncDir(w.opts.Dir)
		}
	}
	if cerr := old.Close(); serr == nil {
		serr = cerr
	}
	return w.syncDone(sealedLast, serr)
}

// syncDone ends the fsync in flight outside mu: it latches serr, or
// advances the durable frontier to target, and wakes every waiter.
func (w *WAL) syncDone(target uint64, serr error) error {
	w.mu.Lock()
	w.syncing = false
	if serr != nil {
		w.err = serr
	} else if target > w.syncedLSN {
		w.syncedLSN = target
		if w.opts.Mode != ModeOff {
			w.syncs++
		}
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return serr
}

// failLocked latches err, a disk change that failed under mu, so the
// journal is fail-stop; it wakes every waiter to see it and releases mu.
func (w *WAL) failLocked(err error) error {
	w.err = err
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// Append frames and buffers one record, returning its LSN. It never
// waits for the disk — pair it with Commit for durability. After a
// latched I/O error every Append fails: the journal is fail-stop so a
// sick disk surfaces as rejected writes, not silent data loss.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(payload) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecordSize)
	}
	if fn := w.failAppend.Load(); fn != nil && *fn != nil {
		if err := (*fn)(payload); err != nil {
			return 0, err
		}
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errors.New("wal: closed")
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	binary.LittleEndian.PutUint32(w.hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:], crc32.Checksum(payload, crcTable))
	_, err := w.bw.Write(w.hdr[:])
	if err == nil {
		_, err = w.bw.Write(payload)
	}
	if err != nil {
		return 0, w.failLocked(err)
	}
	lsn := w.nextLSN
	w.nextLSN++
	n := int64(recHeaderSize + len(payload))
	w.segBytes += n
	w.appends++
	w.appendedBytes += n
	w.unflushed++
	// Kick the committer on a full flush batch or a segment crossing
	// the roll threshold; both are handled off the append path.
	kick := w.unflushed >= flushBatch || w.segBytes >= w.opts.SegmentBytes
	if w.unflushed >= flushBatch {
		w.unflushed = 0
	}
	w.mu.Unlock()
	if kick {
		w.kick()
	}
	return lsn, nil
}

// kick nudges the committer without blocking.
func (w *WAL) kick() {
	select {
	case w.flushCh <- struct{}{}:
	default:
	}
}

// Commit makes the record at lsn durable per the configured mode:
// ModeSync waits for a (group) fsync to cover it, ModeAsync and
// ModeOff return immediately.
func (w *WAL) Commit(lsn uint64) error {
	switch w.opts.Mode {
	case ModeOff, ModeAsync:
		w.mu.Lock()
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.kick()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedLSN < lsn && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.syncedLSN < lsn {
		return errors.New("wal: closed before commit")
	}
	return nil
}

// Sync forces an immediate flush (+fsync outside ModeOff) of
// everything appended so far — the checkpoint barrier's durability
// point.
func (w *WAL) Sync() error { return w.syncNow() }

// committer is the group-commit loop: it batches fsyncs on a
// time/count window so concurrent committers amortize sync cost.
func (w *WAL) committer() {
	defer w.wg.Done()
	t := time.NewTicker(w.opts.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-w.done:
			return
		case <-w.flushCh:
		case <-t.C:
		}
		w.maybeRoll()
		w.syncNow()
	}
}

// syncNow flushes the buffer and (outside ModeOff) fsyncs the active
// segment, then wakes Commit waiters. The fsync itself runs OUTSIDE
// mu — only the cheap buffer flush holds the lock — so a slow disk
// never stalls the append hot path (the bandit journals rank records
// under its event-log mutex; an fsync-under-mu would transitively
// freeze ranking for the sync's duration). A single-flight flag keeps
// one fsync in flight; later callers wait and re-check coverage.
func (w *WAL) syncNow() error {
	w.mu.Lock()
	for w.syncing && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil || w.f == nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	target := w.nextLSN - 1
	if target <= w.syncedLSN {
		w.mu.Unlock()
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return w.failLocked(err)
	}
	w.unflushed = 0
	if w.opts.Mode == ModeOff {
		w.syncedLSN = target
		w.syncs++
		w.cond.Broadcast()
		w.mu.Unlock()
		return nil
	}
	f := w.f
	w.syncing = true
	w.mu.Unlock()

	return w.syncDone(target, w.observeSync(f))
}

// SyncedLSN returns the durable frontier: the newest LSN covered by a
// flush (+fsync outside ModeOff). Replication ships records only up to
// this point, so a follower can never hold a record the primary could
// still lose in a crash.
func (w *WAL) SyncedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncedLSN
}

// WaitLSN blocks until the durable frontier reaches lsn, the timeout
// elapses, ctx is done (its caller went away), the journal closes, or
// an I/O error latches — whichever comes first — and returns the
// frontier it observed. It kicks the committer so a quiet journal does
// not sit out a full group-commit window before the waiter sees fresh
// records; this is the long-poll primitive under the replication
// stream's tail.
func (w *WAL) WaitLSN(ctx context.Context, lsn uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	w.kick()
	w.mu.Lock()
	defer w.mu.Unlock()
	waiting := func() bool {
		return w.syncedLSN < lsn && w.err == nil && !w.closed && ctx.Err() == nil && time.Now().Before(deadline)
	}
	if !waiting() {
		return w.syncedLSN
	}
	// cond.Wait watches neither the deadline nor ctx; a broadcast at
	// either wakes every waiter (the others re-check and sleep on). It
	// takes mu, so it cannot fall between a check and the Wait after it.
	defer time.AfterFunc(time.Until(deadline), w.wake).Stop()
	defer context.AfterFunc(ctx, w.wake)()
	for waiting() {
		w.cond.Wait()
	}
	return w.syncedLSN
}

// TailDamage reports the torn or corrupt tail Open found and truncated
// away (0, nil when the journal ended cleanly). A non-zero result
// means a crash cut an append short: records past the last durable
// group commit were discarded — the bounded loss the sync mode
// contract allows, but worth an operator's log line.
func (w *WAL) TailDamage() (bytes int64, reason error) {
	return w.tornBytes, w.tornErr
}

// Window returns the retained LSN range [first, next): first is the
// oldest record still on disk, next the LSN the next append will take.
// first == next means nothing is retained — a fresh journal, or one
// whose every record compaction has removed, in which case both are
// LastLSN+1. "Are the records from x on still here?" is therefore
// first <= x on every journal, with no empty-window special case.
// Stats.FirstLSN, and through it the stats and metrics surfaces, report
// the same first.
func (w *WAL) Window() (first, next uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.windowLocked()
}

func (w *WAL) windowLocked() (first, next uint64) {
	if len(w.segs) == 0 {
		return w.nextLSN, w.nextLSN
	}
	return w.segs[0].firstLSN, w.nextLSN
}

// LastLSN returns the newest appended LSN (0 when the log is empty).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// Dir returns the journal directory — what an audit engine opens
// read-only beside a live WAL.
func (w *WAL) Dir() string { return w.opts.Dir }

// TruncateBefore compacts the journal once a snapshot covers every
// record with LSN <= lsn: it detaches the sealed segments wholly at or
// below lsn and returns how many it detached. The active segment is
// never detached. Window, Stats and cursors see the shorter journal at
// once; the files are unlinked later by the reclaimer, outside mu and
// off the caller's path, because an unlink can take seconds (a written-
// back 64 MiB segment on a filesystem mounted with discard). Until then
// DirSource and Segments may still list them, and a crash leaves them
// on disk: the state a crash between the snapshot's write and this call
// leaves, which Open lists and the next compaction drops. A closed
// journal detaches nothing.
func (w *WAL) TruncateBefore(lsn uint64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0
	}
	n := 0
	for n+1 < len(w.segs) && w.segs[n+1].firstLSN <= lsn+1 {
		n++
	}
	w.reclaim = append(w.reclaim, w.segs[:n]...)
	w.segs = w.segs[n:]
	w.truncatedSegs += int64(n)
	if len(w.reclaim) > 0 {
		select {
		case w.reclaimCh <- struct{}{}:
		default:
		}
	}
	return n
}

// reclaimer unlinks the segments TruncateBefore detached, a pass per
// kick and a final one when the journal closes.
func (w *WAL) reclaimer() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			w.reclaimPass()
			return
		case <-w.reclaimCh:
			w.reclaimPass()
		}
	}
}

// reclaimPass unlinks the queued segments oldest first and then fsyncs
// the directory, holding mu only to read and trim the queue. It stops at
// the first unlink that fails and keeps that segment and every later one
// queued for the next pass, so the files left on disk stay contiguous.
func (w *WAL) reclaimPass() {
	w.mu.Lock()
	queued := w.reclaim // TruncateBefore only appends past these
	w.mu.Unlock()
	n := 0
	for _, s := range queued {
		if err := w.opts.FS.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	w.opts.FS.SyncDir(w.opts.Dir) // best effort: a segment a crash brings back is compacted again
	w.mu.Lock()
	w.reclaim = w.reclaim[n:]
	w.mu.Unlock()
}

// Stats snapshots the journal counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Stats{
		Mode:          w.opts.Mode.String(),
		LastLSN:       w.nextLSN - 1,
		SyncedLSN:     w.syncedLSN,
		Appends:       w.appends,
		AppendedBytes: w.appendedBytes,
		Syncs:         w.syncs,
		Segments:      len(w.segs),
		TruncatedSegs: w.truncatedSegs,
	}
	st.FirstLSN, _ = w.windowLocked()
	return st
}

// Close stops the committer, waits for the reclaimer's final pass over
// the segments compaction detached, flushes, fsyncs (outside ModeOff),
// and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncing {
		w.cond.Wait()
	}
	var err error
	if w.f != nil {
		err = w.bw.Flush()
		if w.opts.Mode != ModeOff {
			if serr := w.f.Sync(); serr != nil && err == nil {
				err = serr
			}
		}
		if err == nil && w.syncedLSN < w.nextLSN-1 {
			w.syncedLSN = w.nextLSN - 1
		}
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	w.cond.Broadcast()
	if err != nil && w.err == nil {
		w.err = err
	}
	return err
}

// WriteFileAtomic replaces path with data durably through fsys: the
// bytes go to path+".tmp", are fsynced and renamed over path, and then
// path's directory is fsynced, because a rename survives a crash only
// once its directory does. A crash leaves the old file or the new one,
// never a truncated mix. An error before the rename leaves the old file
// in place; an error from the directory fsync leaves the new bytes at
// path without a promise that the rename survives a crash.
// Checkpoints publish the model snapshot through their journal's FS
// before compacting the journal segments the snapshot covers, and stop
// on its error, so the compaction cannot outlive the snapshot's rename.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenAt(tmp, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

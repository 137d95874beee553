package audit

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"qoadvisor/internal/api"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// Engine answers read-only queries over one journal directory. A query
// is a filter over wal.DirSource's replay — the reader crash recovery
// uses, with its one rule for a torn tail versus mid-log damage — so
// the engine keeps nothing beside the journal and writes nothing: it
// runs beside a live WAL or over a copied directory. Safe for
// concurrent use; its only state is the cumulative counters.
type Engine struct {
	dir string

	queries, segScanned, segSkipped, recScanned, recMatched atomic.Int64
}

// Open builds an engine over a journal directory. The directory must
// exist; holding zero segments is fine (queries return nothing).
func Open(dir string) (*Engine, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("audit: %s is not a directory", dir)
	}
	return &Engine{dir: dir}, nil
}

// Totals reports the engine's lifetime counters.
func (e *Engine) Totals() api.AuditStats {
	return api.AuditStats{
		Queries:         e.queries.Load(),
		SegmentsScanned: e.segScanned.Load(),
		SegmentsSkipped: e.segSkipped.Load(),
		RecordsScanned:  e.recScanned.Load(),
		RecordsMatched:  e.recMatched.Load(),
	}
}

// Count adds one journal pass to the totals. Run counts its own; the
// as-of reconstruction, which replays through serve.AuditAsOf rather
// than Run, is counted by its caller.
func (e *Engine) Count(st api.AuditScanStats) {
	e.queries.Add(1)
	e.segScanned.Add(st.SegmentsScanned)
	e.segSkipped.Add(st.SegmentsSkipped)
	e.recScanned.Add(st.RecordsScanned)
	e.recMatched.Add(st.RecordsMatched)
}

// Query selects journal records. All clauses are conjunctive; zero
// values mean "unbounded".
type Query struct {
	// Tags restricts to these record types (empty = all).
	Tags []byte
	// Template restricts to records that reference this template hash
	// (hint rollovers and quarantine tables carry template hashes).
	Template    uint64
	HasTemplate bool
	// EventID restricts to records that reference this event (rank
	// records and reward batches).
	EventID string
	// FromLSN/ToLSN bound the LSN window inclusively (0 = unbounded).
	FromLSN, ToLSN uint64
	// Limit stops the scan after this many matches (0 = unlimited).
	Limit int
}

// ScanOf renders a replay pass as scan counters. Segments are skipped
// on their headers alone: those wholly below the LSN window are never
// opened, and the pass stops at the window's last record or the row
// limit without opening the ones after it.
func ScanOf(info wal.ReplayInfo, matched int64) api.AuditScanStats {
	skipped := int64(info.Segments - info.SegmentsRead)
	return api.AuditScanStats{
		SegmentsTotal:   int64(info.Segments),
		SegmentsScanned: int64(info.SegmentsRead),
		SegmentsSkipped: skipped,
		SkippedByLSN:    skipped,
		RecordsScanned:  info.Records,
		RecordsMatched:  matched,
		Truncated:       info.Truncated,
	}
}

// addScan accumulates one pass's counters into a multi-pass total.
func addScan(s *api.AuditScanStats, o api.AuditScanStats) {
	s.SegmentsTotal += o.SegmentsTotal
	s.SegmentsScanned += o.SegmentsScanned
	s.SegmentsSkipped += o.SegmentsSkipped
	s.SkippedByLSN += o.SkippedByLSN
	s.RecordsScanned += o.RecordsScanned
	s.RecordsMatched += o.RecordsMatched
	s.Truncated = s.Truncated || o.Truncated
}

// Result is one matching record, decoded.
type Result struct {
	LSN uint64
	Rec walrec.Record
}

// match applies the clauses cheapest first: the tag byte, then one
// decode, with the event and template clauses checked on the decoded
// record.
func (q *Query) match(lsn uint64, payload []byte) (Result, bool) {
	if len(q.Tags) > 0 && bytes.IndexByte(q.Tags, payload[0]) < 0 {
		return Result{}, false
	}
	rec, err := walrec.Decode(payload)
	if err != nil {
		// Unfiltered listing: surface unknown tags as opaque rows rather
		// than hiding them. They mention no event or template.
		unfiltered := len(q.Tags) == 0 && !q.HasTemplate && q.EventID == ""
		return Result{LSN: lsn, Rec: walrec.Record{Tag: payload[0]}}, unfiltered
	}
	if q.HasTemplate && !recordMentionsTemplate(rec, q.Template) ||
		q.EventID != "" && !recordMentionsEvent(rec, q.EventID) {
		return Result{}, false
	}
	return Result{LSN: lsn, Rec: rec}, true
}

// errStop ends a replay pass at the LSN window's end or the row limit.
var errStop = errors.New("audit: scan complete")

// Run streams the records matching q to fn in LSN order. The segment
// list is read at call time; records appended afterwards may or may not
// be observed. A torn tail on the final segment ends the scan cleanly
// (Truncated); damage before it, an unreadable segment, or an error from
// fn ends it with that error.
func (e *Engine) Run(q Query, fn func(Result) error) (api.AuditScanStats, error) {
	var matched int64
	info, err := wal.DirSource{Dir: e.dir}.Replay(max(q.FromLSN, 1)-1, func(lsn uint64, payload []byte) error {
		// Records are LSN-dense and ascending: nothing past ToLSN matches.
		if q.ToLSN != 0 && lsn > q.ToLSN {
			return errStop
		}
		if res, ok := q.match(lsn, payload); ok {
			if err := fn(res); err != nil {
				return err
			}
			if matched++; matched == int64(q.Limit) {
				return errStop
			}
		}
		if lsn == q.ToLSN {
			return errStop
		}
		return nil
	})
	if errors.Is(err, errStop) {
		err = nil
	}
	st := ScanOf(info, matched)
	e.Count(st)
	return st, err
}

// recordMentionsEvent reports whether a rank record or reward batch
// carries the event.
func recordMentionsEvent(rec walrec.Record, eventID string) bool {
	switch rec.Tag {
	case walrec.TagRank:
		return rec.Rank != nil && rec.Rank.EventID == eventID
	case walrec.TagRewardBatch:
		for _, e := range rec.RewardBatch {
			if e.EventID == eventID {
				return true
			}
		}
	}
	return false
}

// recordMentionsTemplate reports whether a hint rollover or quarantine
// table carries the template.
func recordMentionsTemplate(rec walrec.Record, hash uint64) bool {
	switch rec.Tag {
	case walrec.TagHintRollover:
		for _, h := range rec.HintRollover.Hints {
			if h.TemplateHash == hash {
				return true
			}
		}
	case walrec.TagQuarantine:
		_, ok := rec.Quarantine.States[hash]
		return ok
	}
	return false
}

// Package walrec is the registry of journal record types: every tag
// the write-ahead log carries, its registered name, and the codec for
// its payload. It is the one decoder of journal records, shared by
// journal replay (qoadvisor/internal/bandit.Replayer), crash recovery,
// audit as-of and follower tailing (qoadvisor/internal/serve.Applier,
// the last via internal/replicate), and the audit queries
// (qoadvisor/internal/audit, which filter on the records Decode
// returns) — one place where a tag byte becomes a typed struct, so the
// consumers can never drift apart on the format. The tags and record
// types are used under their names here; no package re-exports them.
//
// Records decode straight to the types their consumers use: a hint
// rollover to sis.Hint, its flip parsed by rules.ParseFlip, and a
// quarantine table to durable drift.State values. Those leaf packages
// do not import walrec, so no cycle forms, and the strictness of a
// record is decided here once: a flip that does not parse or a state
// that is not durable fails Decode, for recovery, a follower and audit
// alike, instead of passing a wire-level decode that a second parser
// downstream may or may not repeat.
//
// Encodings are little-endian: fixed 8-byte words for hashes and float
// bits (feature IDs span the full 64-bit space, so varints would
// inflate them), uvarints for lengths and counts. Every payload starts
// with its tag byte. testdata/records.golden pins one record of each.
//
// A decoded record never aliases its payload: every string one decode
// call returns is a substring of one arena string for that record
// (internal/strarena), so a rollover or reward batch makes one string
// however many hints or events it carries, and a string a caller keeps
// pins its record's strings, not the payload. The replay path that
// needs no copy at all reads rank and reward-batch payloads in place
// through ScanRank and ScanRewardBatch.
package walrec

import (
	"encoding/binary"
	"fmt"
	"math"

	"qoadvisor/internal/drift"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/strarena"
)

// Journal record tags. LSN-ordered replay dispatches on the payload's
// first byte; these constants are the one assignment. Tags 1-3 are
// bandit state (qoadvisor/internal/bandit.Replayer applies them), 4 and
// 5 serve state (qoadvisor/internal/serve.Applier applies them).
const (
	// TagRank is one logged rank decision in resolved form: event ID,
	// propensity, context feature IDs, chosen action's feature IDs.
	TagRank byte = 1
	// TagRewardBatch is the accepted slice of one reward batch.
	TagRewardBatch byte = 2
	// TagTrainMark is an out-of-band training flush (drain, shutdown,
	// checkpoint barrier).
	TagTrainMark byte = 3
	// TagHintRollover is a wholesale hint-table install: the complete
	// table plus the cache generation it minted, so replay restores the
	// generation clients observe too. Checkpoints and follower
	// bootstraps re-journal the live table above the snapshot watermark,
	// so compaction never truncates the only copy.
	TagHintRollover byte = 4
	// TagQuarantine is the complete durable drift-safeguard table, so
	// replay is last-record-wins; healthy and suspect templates are
	// absent by construction.
	TagQuarantine byte = 5
)

// tagNames maps each registered tag to its stable name — the registry
// the audit surface, metrics labels, and error messages share.
var tagNames = map[byte]string{
	TagRank:         "rank",
	TagRewardBatch:  "reward_batch",
	TagTrainMark:    "train_mark",
	TagHintRollover: "hint_rollover",
	TagQuarantine:   "quarantine",
}

// Name returns the tag's registered name, or "" when the tag is
// unknown (a journal written by a newer binary).
func Name(tag byte) string { return tagNames[tag] }

// ParseTag resolves a registered name back to its tag byte.
func ParseTag(name string) (byte, error) {
	for tag, n := range tagNames {
		if n == name {
			return tag, nil
		}
	}
	return 0, fmt.Errorf("walrec: unknown record type %q", name)
}

// Rank is the decoded form of a TagRank payload.
type Rank struct {
	EventID string
	Prob    float64
	CtxIDs  []uint64
	ActIDs  []uint64
}

// RewardEntry is one (event, reward) observation inside a journaled
// reward batch.
type RewardEntry struct {
	EventID string
	Value   float64
}

// HintRollover is the decoded form of a TagHintRollover payload.
type HintRollover struct {
	Gen   uint64
	Hints []sis.Hint
}

// Quarantine flag bits.
const (
	// QuarFlagSnapshot marks a checkpoint/bootstrap re-journal of the
	// live table (no transition happened at this LSN).
	QuarFlagSnapshot byte = 1 << 0
	// QuarFlagManual marks an operator-initiated transition.
	QuarFlagManual byte = 1 << 1
)

// Quarantine is the decoded form of a TagQuarantine payload: States
// maps template hashes to durable drift states.
type Quarantine struct {
	States   map[uint64]drift.State
	Snapshot bool
	Manual   bool
}

// --- shared wire primitives ---

func appendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("walrec: record truncated at varint")
	}
	return v, b[n:], nil
}

// takeBytes reads a length-prefixed string in place.
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) < n {
		return nil, nil, fmt.Errorf("walrec: record truncated at string")
	}
	return b[:n], b[n:], nil
}

func takeUint64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("walrec: record truncated at word")
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// IDList is a list of feature IDs read in place from a record: eight
// little-endian bytes each.
type IDList []byte

// Len returns the number of IDs.
func (l IDList) Len() int { return len(l) / 8 }

// AppendTo appends the IDs to dst.
func (l IDList) AppendTo(dst []uint64) []uint64 {
	for i := 0; i+8 <= len(l); i += 8 {
		dst = append(dst, binary.LittleEndian.Uint64(l[i:]))
	}
	return dst
}

// decode returns the IDs in a slice of their own, nil for none.
func (l IDList) decode() []uint64 {
	if len(l) == 0 {
		return nil
	}
	return l.AppendTo(make([]uint64, 0, l.Len()))
}

func takeIDs(b []byte) (IDList, []byte, error) {
	n, b, err := takeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b))/8 { // not n*8 > len: a corrupt count must not overflow past the check
		return nil, nil, fmt.Errorf("walrec: record truncated at ID list")
	}
	return IDList(b[:n*8]), b[n*8:], nil
}

// --- rank (tag 1) ---

// AppendRank appends the frame of one rank decision to dst.
func AppendRank(dst []byte, eventID string, prob float64, ctxIDs, actIDs []uint64) []byte {
	dst = append(dst, TagRank)
	dst = appendString(dst, eventID)
	dst = appendUint64(dst, math.Float64bits(prob))
	dst = binary.AppendUvarint(dst, uint64(len(ctxIDs)))
	for _, id := range ctxIDs {
		dst = appendUint64(dst, id)
	}
	dst = binary.AppendUvarint(dst, uint64(len(actIDs)))
	for _, id := range actIDs {
		dst = appendUint64(dst, id)
	}
	return dst
}

// RankFrame is a TagRank payload read in place: EventID, CtxIDs and
// ActIDs are views of the payload, valid while it is.
type RankFrame struct {
	EventID []byte
	Prob    float64
	CtxIDs  IDList
	ActIDs  IDList
}

// ScanRank reads a TagRank payload (including the type tag) in place,
// allocating nothing.
func ScanRank(p []byte) (RankFrame, error) {
	var f RankFrame
	if len(p) == 0 || p[0] != TagRank {
		return f, fmt.Errorf("walrec: not a rank record")
	}
	b := p[1:]
	var err error
	if f.EventID, b, err = takeBytes(b); err != nil {
		return f, err
	}
	var bits uint64
	if bits, b, err = takeUint64(b); err != nil {
		return f, err
	}
	f.Prob = math.Float64frombits(bits)
	if f.CtxIDs, b, err = takeIDs(b); err != nil {
		return f, err
	}
	if f.ActIDs, _, err = takeIDs(b); err != nil {
		return f, err
	}
	return f, nil
}

// DecodeRank parses a TagRank payload (including the type tag).
func DecodeRank(p []byte) (Rank, error) {
	f, err := ScanRank(p)
	if err != nil {
		return Rank{}, err
	}
	return Rank{
		EventID: string(f.EventID),
		Prob:    f.Prob,
		CtxIDs:  f.CtxIDs.decode(),
		ActIDs:  f.ActIDs.decode(),
	}, nil
}

// --- reward batch (tag 2) ---

// EncodeRewardBatch frames the accepted slice of one reward batch.
func EncodeRewardBatch(entries []RewardEntry) []byte {
	size := 2
	for _, e := range entries {
		size += len(e.EventID) + 4 + 8
	}
	b := make([]byte, 0, size)
	b = append(b, TagRewardBatch)
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = appendString(b, e.EventID)
		b = appendUint64(b, math.Float64bits(e.Value))
	}
	return b
}

// RewardBatchFrame is a TagRewardBatch payload read in place and
// checked whole; Next walks its entries.
type RewardBatchFrame struct {
	n       int    // entries not yet walked
	b       []byte // the rest of them
	idBytes int    // the bytes of all the event IDs
}

// ScanRewardBatch reads a TagRewardBatch payload in place, allocating
// nothing. It checks every entry before it returns, so a corrupt record
// is refused before any of it is applied.
func ScanRewardBatch(p []byte) (RewardBatchFrame, error) {
	if len(p) == 0 || p[0] != TagRewardBatch {
		return RewardBatchFrame{}, fmt.Errorf("walrec: not a reward-batch record")
	}
	n, b, err := takeUvarint(p[1:])
	if err != nil {
		return RewardBatchFrame{}, err
	}
	// An entry encodes to at least 9 bytes (length prefix + 8-byte
	// float); a count claiming more is corruption, not an allocation
	// request.
	if n > uint64(len(b))/9 {
		return RewardBatchFrame{}, fmt.Errorf("walrec: reward batch claims %d entries in %d bytes", n, len(b))
	}
	f := RewardBatchFrame{n: int(n), b: b}
	for rest := b; n > 0; n-- {
		var id []byte
		if id, rest, err = takeBytes(rest); err != nil {
			return RewardBatchFrame{}, err
		}
		if _, rest, err = takeUint64(rest); err != nil {
			return RewardBatchFrame{}, err
		}
		f.idBytes += len(id)
	}
	return f, nil
}

// Next returns the next entry, its event ID a view of the payload; ok is
// false after the last.
func (f *RewardBatchFrame) Next() (eventID []byte, value float64, ok bool) {
	if f.n == 0 {
		return nil, 0, false
	}
	f.n--
	eventID, f.b, _ = takeBytes(f.b)
	bits, b, _ := takeUint64(f.b)
	f.b = b
	return eventID, math.Float64frombits(bits), true
}

// DecodeRewardBatch parses a TagRewardBatch payload.
func DecodeRewardBatch(p []byte) ([]RewardEntry, error) {
	f, err := ScanRewardBatch(p)
	if err != nil {
		return nil, err
	}
	var ids strarena.Arena
	ids.Reset(f.idBytes)
	entries := make([]RewardEntry, 0, f.n)
	for id, v, ok := f.Next(); ok; id, v, ok = f.Next() {
		entries = append(entries, RewardEntry{EventID: ids.String(id), Value: v})
	}
	return entries, nil
}

// --- train mark (tag 3) ---

// EncodeTrainMark frames an out-of-band training flush.
func EncodeTrainMark() []byte { return []byte{TagTrainMark} }

// --- hint rollover (tag 4) ---

// EncodeHintRollover frames one hint-table rollover, each flip as its
// Flip.String rendering:
//
//	[tag][uvarint generation][uvarint count]
//	per hint: [8-byte hash][string templateID][string flip][uvarint day]
func EncodeHintRollover(gen uint64, hints []sis.Hint) []byte {
	// Capacity, not a limit: per hint two length prefixes and a day
	// varint fit in 16 bytes and a catalog flip renders in five
	// ("+R255"); a longer day or a rule outside the catalog grows the
	// buffer instead.
	size := 1 + 2*binary.MaxVarintLen64 + len(hints)*(8+16+5)
	for i := range hints {
		size += len(hints[i].TemplateID)
	}
	b := make([]byte, 0, size)
	b = append(b, TagHintRollover)
	b = binary.AppendUvarint(b, gen)
	b = binary.AppendUvarint(b, uint64(len(hints)))
	for i := range hints {
		h := &hints[i]
		b = appendUint64(b, h.TemplateHash)
		b = appendString(b, h.TemplateID)
		b = appendString(b, h.Flip.String())
		b = binary.AppendUvarint(b, uint64(h.Day))
	}
	return b
}

// DecodeHintRollover parses a TagHintRollover payload, each flip with
// rules.ParseFlip.
func DecodeHintRollover(p []byte) (HintRollover, error) {
	var rec HintRollover
	if len(p) == 0 || p[0] != TagHintRollover {
		return rec, fmt.Errorf("walrec: not a hint-rollover record")
	}
	b := p[1:]
	var err error
	if rec.Gen, b, err = takeUvarint(b); err != nil {
		return rec, err
	}
	var n uint64
	if n, b, err = takeUvarint(b); err != nil {
		return rec, err
	}
	// A hint encodes to at least 11 bytes (8-byte hash, two length
	// prefixes, one day varint); a count claiming more than the payload
	// could hold is corruption, not an allocation request.
	const minHintEnc = 11
	if n > uint64(len(b))/minHintEnc {
		return rec, fmt.Errorf("walrec: hint record claims %d hints in %d bytes", n, len(b))
	}
	// The first pass checks the framing of every hint and counts the
	// bytes of their IDs: the size of the one arena the second pass cuts
	// them from.
	size := 0
	for i, rest := uint64(0), b; i < n; i++ {
		var h rawHint
		if h, rest, err = takeHint(rest); err != nil {
			return rec, err
		}
		size += len(h.id)
	}
	var ids strarena.Arena
	ids.Reset(size)
	rec.Hints = make([]sis.Hint, n)
	for i := range rec.Hints {
		var h rawHint
		h, b, _ = takeHint(b)
		// The conversion does not outlive the call (ParseFlip copies what
		// an error quotes), so it does not allocate.
		flip, err := rules.ParseFlip(string(h.flip))
		if err != nil {
			return rec, fmt.Errorf("walrec: hint record: %w", err)
		}
		rec.Hints[i] = sis.Hint{
			TemplateHash: h.hash,
			TemplateID:   ids.String(h.id),
			Flip:         flip,
			Day:          int(h.day),
		}
	}
	return rec, nil
}

// rawHint is one hint of a rollover record read in place.
type rawHint struct {
	hash     uint64
	id, flip []byte
	day      uint64
}

func takeHint(b []byte) (h rawHint, rest []byte, err error) {
	if len(b) < 8 {
		return h, nil, fmt.Errorf("walrec: hint record truncated at hash")
	}
	h.hash, b = binary.LittleEndian.Uint64(b), b[8:]
	if h.id, b, err = takeBytes(b); err != nil {
		return h, nil, err
	}
	if h.flip, b, err = takeBytes(b); err != nil {
		return h, nil, err
	}
	h.day, b, err = takeUvarint(b)
	return h, b, err
}

// --- quarantine (tag 5) ---

// EncodeQuarantine frames the durable quarantine table:
//
//	[tag][flags][uvarint count] per template: [8-byte hash][state byte]
//
// Only durable states belong in the journal; any other is dropped. The
// entries are written in ascending hash order, so one table always
// encodes to the same bytes; decode builds a map and accepts any order.
func EncodeQuarantine(states map[uint64]drift.State, snapshot, manual bool) []byte {
	var flags byte
	if snapshot {
		flags |= QuarFlagSnapshot
	}
	if manual {
		flags |= QuarFlagManual
	}
	n := 0
	for _, st := range states {
		if st.Durable() {
			n++
		}
	}
	b := make([]byte, 0, 2+binary.MaxVarintLen64+9*n)
	b = append(b, TagQuarantine, flags)
	b = binary.AppendUvarint(b, uint64(n))
	head := len(b)
	for hash, st := range states {
		if st.Durable() {
			b = appendUint64(b, hash)
			b = append(b, byte(st))
		}
	}
	sortEntries(b[head:])
	return b
}

// sortEntries sorts b's 9-byte [hash][state] entries by ascending hash in
// place: a heapsort, so that it allocates nothing.
func sortEntries(b []byte) {
	hash := func(i int) uint64 { return binary.LittleEndian.Uint64(b[9*i:]) }
	swap := func(i, j int) {
		for k := 0; k < 9; k++ {
			b[9*i+k], b[9*j+k] = b[9*j+k], b[9*i+k]
		}
	}
	siftDown := func(i, end int) {
		for {
			c := 2*i + 1
			if c >= end {
				return
			}
			if c+1 < end && hash(c+1) > hash(c) {
				c++
			}
			if hash(i) >= hash(c) {
				return
			}
			swap(i, c)
			i = c
		}
	}
	n := len(b) / 9
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i, n)
	}
	for end := n - 1; end > 0; end-- {
		swap(0, end)
		siftDown(0, end)
	}
}

// DecodeQuarantine parses a TagQuarantine payload, refusing a state
// that is not durable.
func DecodeQuarantine(p []byte) (Quarantine, error) {
	var rec Quarantine
	if len(p) < 2 || p[0] != TagQuarantine {
		return rec, fmt.Errorf("walrec: not a quarantine record")
	}
	rec.Snapshot = p[1]&QuarFlagSnapshot != 0
	rec.Manual = p[1]&QuarFlagManual != 0
	b := p[2:]
	n, b, err := takeUvarint(b)
	if err != nil {
		return rec, err
	}
	if n > uint64(len(b))/9 {
		return rec, fmt.Errorf("walrec: quarantine record claims %d templates in %d bytes", n, len(b))
	}
	rec.States = make(map[uint64]drift.State, n)
	for i := uint64(0); i < n; i++ {
		if len(b) < 9 {
			return rec, fmt.Errorf("walrec: quarantine record truncated")
		}
		hash, st := binary.LittleEndian.Uint64(b), drift.State(b[8])
		if !st.Durable() {
			return rec, fmt.Errorf("walrec: quarantine record carries non-durable state %d for template %016x", st, hash)
		}
		rec.States[hash] = st
		b = b[9:]
	}
	return rec, nil
}

// --- unified decode ---

// Record is one journal record in decoded form: the tag plus exactly
// one populated payload pointer (TagTrainMark populates none — the
// mark carries no data).
type Record struct {
	Tag          byte
	Rank         *Rank
	RewardBatch  []RewardEntry
	HintRollover *HintRollover
	Quarantine   *Quarantine
}

// Decode parses any registered record payload into its typed form.
// Unknown tags return an error carrying the tag byte; callers that
// must fail loudly (replay) already do, and callers that may skip
// (audit listing) can branch on Known.
func Decode(p []byte) (Record, error) {
	if len(p) == 0 {
		return Record{}, fmt.Errorf("walrec: empty record")
	}
	rec := Record{Tag: p[0]}
	switch p[0] {
	case TagRank:
		r, err := DecodeRank(p)
		if err != nil {
			return rec, err
		}
		rec.Rank = &r
	case TagRewardBatch:
		entries, err := DecodeRewardBatch(p)
		if err != nil {
			return rec, err
		}
		rec.RewardBatch = entries
	case TagTrainMark:
		// no payload
	case TagHintRollover:
		r, err := DecodeHintRollover(p)
		if err != nil {
			return rec, err
		}
		rec.HintRollover = &r
	case TagQuarantine:
		r, err := DecodeQuarantine(p)
		if err != nil {
			return rec, err
		}
		rec.Quarantine = &r
	default:
		return rec, fmt.Errorf("walrec: unknown record tag %d", p[0])
	}
	return rec, nil
}

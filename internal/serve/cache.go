package serve

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
)

// hintTable is one installed hint file: immutable once published, so a
// reader holding the pointer sees a hint and the generation it was
// installed as from the same table.
//
// It is the node's one resident copy of the hints, laid out at their own
// size: a packed entry per distinct template hash in install order, every
// template ID copied into one string arena, and an open-addressed index
// of entry numbers at load 0.5 — 32 + 8 bytes a hint plus its ID, and
// three allocations however many hints there are.
//
// The table is lossless: lookup and export return exactly the sis.Hint
// that went in, for every value of every field (any Day, any RuleID,
// empty IDs, hash 0), because entries carry Day and RuleID at full
// width. What is narrow is the addressing: entry numbers and arena
// offsets are uint32 and an ID's length shares its word with the flip's
// Enable bit, so a table holds at most maxHintEntries hints whose IDs
// total at most maxHintArena bytes, none longer than maxHintIDLen.
// newHintTable panics past those. Nothing the process reads can get
// there — a journal record is at most wal.MaxRecordSize (16 MiB), an
// HTTP rollover at most maxHintBody (64 MiB) — and Server.InstallHints
// refuses such a slice from an in-process caller with an error first.
type hintTable struct {
	entries []hintEntry
	ids     string // every entry's template ID, back to back
	// index is open-addressed with linear probing. A word is 0 when
	// empty, else an entry's number (from 1) above tagBits bits of its
	// hash: the entry number takes as many bits as the table's size
	// needs and the tag gets the rest (13 at 262,144 hints, none at 2³¹).
	index   []uint32
	tagBits uint8
	gen     uint64
}

// hintEntry is one hint in 32 bytes.
type hintEntry struct {
	hash  uint64
	day   int64
	rule  int64
	idOff uint32
	idLen uint32 // low 31 bits; the top bit is Flip.Enable
}

const (
	hintEnableBit  = 1 << 31
	maxHintIDLen   = hintEnableBit - 1
	maxHintArena   = math.MaxUint32
	maxHintEntries = math.MaxUint32 - 1 // the index numbers entries from 1
)

// hintArena returns the bytes of template ID the hints carry, and whether
// one table can address them all.
func hintArena(hints []sis.Hint) (idBytes uint64, ok bool) {
	for i := range hints {
		n := uint64(len(hints[i].TemplateID))
		if n > maxHintIDLen {
			return 0, false
		}
		idBytes += n
	}
	return idBytes, uint64(len(hints)) <= maxHintEntries && idBytes <= maxHintArena
}

// HintCache maps a job-template hash to the template's active hint. The
// table is only ever replaced whole (the daily rollover), so it is
// published through one atomic pointer: readers load it and never block,
// writers build the next table aside and swap it in.
type HintCache struct {
	cur atomic.Pointer[hintTable]
}

// NewHintCache creates an empty cache at generation 0.
func NewHintCache() *HintCache {
	c := &HintCache{}
	c.cur.Store(&hintTable{})
	return c
}

// lookup returns the active hint for a job template, if any, and the
// generation of the table that answered — hit or miss — from one load.
func (c *HintCache) lookup(templateHash uint64) (h sis.Hint, gen uint64, ok bool) {
	t := c.cur.Load()
	h, ok = t.lookup(templateHash)
	return h, t.gen, ok
}

// Lookup returns the active hint for a job template, if any. This is the
// serving hot path: one pointer load, an index probe and the entry it
// names, no allocation — the hint's TemplateID is a substring of the
// table's arena.
func (c *HintCache) Lookup(templateHash uint64) (sis.Hint, bool) {
	h, _, ok := c.lookup(templateHash)
	return h, ok
}

// probe is where a hash's probe sequence starts — a slot — and the tag
// its index word carries. Template hashes are not trusted to be spread
// (tests install sequential ones), so the hash is mixed first; the
// multiply-shift maps the mix's high bits onto a slot count that is not a
// power of two, and the tag is its low bits.
func (t *hintTable) probe(hash uint64) (home int, tag uint32) {
	hash ^= hash >> 32
	hash *= 0x9e3779b97f4a7c15
	hi, _ := bits.Mul64(hash, uint64(len(t.index)))
	return int(hi), uint32(hash) & (1<<t.tagBits - 1)
}

// slot probes for hash and returns the index slot that names its entry,
// or the empty slot that ends its probe sequence, and the hash's tag. The
// index is never full (load 0.5), so the probe terminates. An entry is
// read only when its slot's tag matches, so a miss seldom leaves the
// index.
func (t *hintTable) slot(hash uint64) (int, uint32) {
	i, tag := t.probe(hash)
	for {
		w := t.index[i]
		if w == 0 || (w&(1<<t.tagBits-1) == tag && t.entries[w>>t.tagBits-1].hash == hash) {
			return i, tag
		}
		if i++; i == len(t.index) {
			i = 0
		}
	}
}

func (t *hintTable) lookup(hash uint64) (sis.Hint, bool) {
	if len(t.index) == 0 {
		return sis.Hint{}, false
	}
	i, _ := t.slot(hash)
	w := t.index[i]
	if w == 0 {
		return sis.Hint{}, false
	}
	return t.hint(&t.entries[w>>t.tagBits-1]), true
}

// hint materialises an entry; the ID shares the arena's bytes.
func (t *hintTable) hint(e *hintEntry) sis.Hint {
	return sis.Hint{
		TemplateHash: e.hash,
		TemplateID:   t.ids[e.idOff : e.idOff+(e.idLen&maxHintIDLen)],
		Flip:         rules.Flip{RuleID: int(e.rule), Enable: e.idLen&hintEnableBit != 0},
		Day:          int(e.day),
	}
}

// newHintTable builds the table in one pass over the hints, in install
// order (sorting 262,144 of them costs more than the rest of the build).
// Duplicate hashes keep the last occurrence, matching sis.Store upload
// semantics: the index finds the earlier entry and it is overwritten in
// place, so no second structure dedupes. (The earlier ID stays in the
// arena, unreferenced; validated installs carry no duplicates.)
func newHintTable(hints []sis.Hint, gen uint64) *hintTable {
	t := &hintTable{gen: gen}
	if len(hints) == 0 {
		return t
	}
	idBytes, ok := hintArena(hints)
	if !ok {
		panic("serve: hint table past its uint32 addressing (see hintTable)")
	}
	var ids strings.Builder
	ids.Grow(int(idBytes))
	t.entries = make([]hintEntry, 0, len(hints))
	t.index = make([]uint32, 2*len(hints))
	t.tagBits = uint8(32 - bits.Len(uint(len(hints))))
	for i := range hints {
		h := &hints[i]
		e := hintEntry{
			hash:  h.TemplateHash,
			day:   int64(h.Day),
			rule:  int64(h.Flip.RuleID),
			idOff: uint32(ids.Len()),
			idLen: uint32(len(h.TemplateID)),
		}
		if h.Flip.Enable {
			e.idLen |= hintEnableBit
		}
		ids.WriteString(h.TemplateID)
		s, tag := t.slot(e.hash)
		if w := t.index[s]; w != 0 {
			t.entries[w>>t.tagBits-1] = e
			continue
		}
		t.entries = append(t.entries, e)
		t.index[s] = uint32(len(t.entries))<<t.tagBits | tag
	}
	t.ids = ids.String()
	return t
}

// Replace installs a fresh hint table as the next generation — the
// pipeline-rollover hot swap — and returns that generation. The
// compare-and-swap makes racing Replace calls each mint their own.
func (c *HintCache) Replace(hints []sis.Hint) uint64 {
	next := newHintTable(hints, 0)
	for {
		old := c.cur.Load()
		next.gen = old.gen + 1 // next is unpublished until the swap succeeds
		if c.cur.CompareAndSwap(old, next) {
			return next.gen
		}
	}
}

// Restore installs a hint table at an explicit generation — the
// journal-replay and replication path. Unlike Replace it does not mint
// a new generation: the journal record carries the generation the
// table was installed as on the primary, and restoring it verbatim is
// what keeps the generation clients observe identical across a crash
// restart or between a primary and its followers.
func (c *HintCache) Restore(hints []sis.Hint, gen uint64) {
	c.cur.Store(newHintTable(hints, gen))
}

// Export snapshots the active table and its generation in ascending
// template-hash order — the stable form checkpoints re-journal and
// tests compare. The hints' IDs share the table's arena.
func (c *HintCache) Export() ([]sis.Hint, uint64) {
	t := c.cur.Load()
	out := make([]sis.Hint, len(t.entries))
	for i := range t.entries {
		out[i] = t.hint(&t.entries[i])
	}
	slices.SortFunc(out, func(a, b sis.Hint) int { return cmp.Compare(a.TemplateHash, b.TemplateHash) })
	return out, t.gen
}

// Size returns the number of active hints.
func (c *HintCache) Size() int { return len(c.cur.Load().entries) }

// Generation returns the generation of the active table: how many have
// been installed.
func (c *HintCache) Generation() uint64 { return c.cur.Load().gen }

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
// size: a 16-byte entry per distinct template hash, grouped into buckets
// of about two by the top bits of the mixed hash behind a directory of
// bucket starts; every template ID in one string arena; and each distinct
// (Day, RuleID, Enable, ID length) once, in a dictionary the entries
// number into. At qobench's 262,144 hints with seven-byte IDs that is 16
// bytes of entry, 2 of directory and 7 of arena a hint. The ID's length
// sits in the dictionary, not before the ID, because serving reads a
// hint's flip and day, never its ID's bytes: a hit does not touch the
// arena. Two entries a bucket rather than four cost a byte of directory
// a hint and keep a bucket within a cache line more often.
//
// The table is lossless: lookup and export return exactly the sis.Hint
// that went in, for every value of every field (any Day, any RuleID,
// empty IDs, hash 0), because the dictionary carries every field at full
// width. What is narrow is the addressing: entry and value numbers, arena
// offsets and ID lengths are uint32, so a table holds at most
// maxHintEntries hints whose IDs total at most maxHintArena bytes.
// newHintTable panics past those. Nothing the process reads can get there
// — a journal record is at most wal.MaxRecordSize (16 MiB), an HTTP
// rollover at most maxHintBody (64 MiB) — and Server.InstallHints
// refuses such a slice from an in-process caller with an error first.
type hintTable struct {
	entries []hintEntry // bucket after bucket, each in ascending hash
	// dir[b] is where bucket b starts in entries and dir[b+1] where it
	// ends; a hash's bucket is the top 64-shift bits of its mix.
	dir   []uint32
	shift uint8
	vals  []hintValue
	ids   string // every entry's template ID, back to back
	gen   uint64
}

// hintEntry is one hint in 16 bytes.
type hintEntry struct {
	hash  uint64
	idOff uint32
	val   uint32 // the hint's flip, day and ID length: vals[val]
}

// hintValue is one distinct (Day, RuleID, Enable, ID length) of a table.
type hintValue struct {
	day, rule int
	idLen     uint32
	enable    bool
}

// pack returns v as one word, and whether it fits there: a Day that
// fits an int32, a RuleID in [0, 2¹⁵) and an ID length below 2¹⁶, as in
// every hint file the pipeline writes. The word holds each field whole
// in bits of its own, so two values that pack share a word only if they
// are equal.
func (v hintValue) pack() (uint64, bool) {
	if v.day != int(int32(v.day)) || v.rule < 0 || v.rule >= 1<<15 || v.idLen >= 1<<16 {
		return 0, false
	}
	k := uint64(uint32(v.day))<<32 | uint64(v.rule)<<17 | uint64(v.idLen)<<1
	if v.enable {
		k |= 1
	}
	return k, true
}

const maxHintArena, maxHintEntries = math.MaxUint32, math.MaxUint32

// hintArena returns the bytes of template ID the hints carry, and whether
// one table can address them all.
func hintArena(hints []sis.Hint) (idBytes uint64, ok bool) {
	for i := range hints {
		idBytes += uint64(len(hints[i].TemplateID))
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
// serving hot path: one pointer load, a directory word and one bucket's
// scan, no allocation — the hint's TemplateID is in the table's arena.
func (c *HintCache) Lookup(templateHash uint64) (sis.Hint, bool) {
	h, _, ok := c.lookup(templateHash)
	return h, ok
}

// bucket is the bucket a hash's entry sits in. Template hashes are not
// trusted to be spread (tests install sequential ones), so the hash is
// mixed first and the bucket is the mix's top bits.
func (t *hintTable) bucket(hash uint64) uint64 {
	hash ^= hash >> 32
	hash *= 0x9e3779b97f4a7c15
	return hash >> t.shift
}

func (t *hintTable) lookup(hash uint64) (sis.Hint, bool) {
	if len(t.dir) == 0 {
		return sis.Hint{}, false
	}
	b := t.bucket(hash)
	run := t.entries[t.dir[b]:t.dir[b+1]]
	for i := range run {
		if run[i].hash == hash {
			return t.hint(&run[i]), true
		}
	}
	return sis.Hint{}, false
}

// hint materialises an entry; the ID shares the arena's bytes.
func (t *hintTable) hint(e *hintEntry) sis.Hint {
	v := &t.vals[e.val]
	return sis.Hint{
		TemplateHash: e.hash,
		TemplateID:   t.ids[e.idOff : e.idOff+v.idLen],
		Flip:         rules.Flip{RuleID: v.rule, Enable: v.enable},
		Day:          v.day,
	}
}

// newHintTable builds the table by a stable counting sort of the hints on
// their buckets: a pass counts each bucket, a pass places each hint at its
// bucket's cursor in install order, and a pass over the buckets sorts each
// stably by hash and keeps the last of every run of one hash. Duplicate
// hashes so keep the last occurrence, matching sis.Store upload
// semantics, in O(k log k) comparisons for a bucket of k. (A dropped
// duplicate's ID stays in the arena, unreferenced; validated installs
// carry none.)
func newHintTable(hints []sis.Hint, gen uint64) *hintTable {
	t := &hintTable{gen: gen}
	if len(hints) == 0 {
		return t
	}
	idBytes, ok := hintArena(hints)
	if !ok {
		panic("serve: hint table past its uint32 addressing (see hintTable)")
	}
	// A power of two of buckets, len(hints)/2 rounded up.
	t.shift = uint8(64 - max(bits.Len(uint(len(hints)-1))-1, 0))
	nb := 1 << (64 - t.shift)
	t.dir = make([]uint32, nb+1)
	for i := range hints {
		t.dir[t.bucket(hints[i].TemplateHash)+1]++
	}
	for b := 1; b <= nb; b++ {
		t.dir[b] += t.dir[b-1]
	}
	var ids strings.Builder
	ids.Grow(int(idBytes))
	t.entries = make([]hintEntry, len(hints))
	// The dictionary is found by packed value, a word hashed by the
	// map's fast path; the rare value that does not pack goes through a
	// map keyed by the value itself.
	packed, wide := make(map[uint64]uint32), make(map[hintValue]uint32)
	for i := range hints {
		h := &hints[i]
		v := hintValue{h.Day, h.Flip.RuleID, uint32(len(h.TemplateID)), h.Flip.Enable}
		next := uint32(len(t.vals))
		var vi uint32
		var seen bool
		if k, ok := v.pack(); ok {
			if vi, seen = packed[k]; !seen {
				packed[k] = next
			}
		} else if vi, seen = wide[v]; !seen {
			wide[v] = next
		}
		if !seen {
			vi = next
			t.vals = append(t.vals, v)
		}
		b := t.bucket(h.TemplateHash)
		t.entries[t.dir[b]] = hintEntry{hash: h.TemplateHash, idOff: uint32(ids.Len()), val: vi}
		t.dir[b]++
		ids.WriteString(h.TemplateID)
	}
	t.ids = ids.String()
	// Placing moved each bucket's cursor, dir[b], to where it ends.
	lo, kept := uint32(0), uint32(0)
	for b := range nb {
		run := t.entries[lo:t.dir[b]]
		lo, t.dir[b] = t.dir[b], kept
		slices.SortStableFunc(run, func(x, y hintEntry) int { return cmp.Compare(x.hash, y.hash) })
		for i := range run {
			if i+1 == len(run) || run[i+1].hash != run[i].hash {
				t.entries[kept] = run[i]
				kept++
			}
		}
	}
	t.dir[nb] = kept
	t.entries = t.entries[:kept]
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

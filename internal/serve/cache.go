package serve

import (
	"sort"
	"sync/atomic"

	"qoadvisor/internal/sis"
)

// hintTable is one installed hint file: immutable once published, so a
// reader holding the pointer sees a hint and the generation it was
// installed as from the same table.
type hintTable struct {
	hints map[uint64]sis.Hint
	gen   uint64
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
	h, ok = t.hints[templateHash]
	return h, t.gen, ok
}

// Lookup returns the active hint for a job template, if any. This is the
// serving hot path: one pointer load, one map read.
func (c *HintCache) Lookup(templateHash uint64) (sis.Hint, bool) {
	h, _, ok := c.lookup(templateHash)
	return h, ok
}

// newHintTable indexes hints by template hash. Duplicate hashes keep the
// last occurrence, matching sis.Store upload semantics.
func newHintTable(hints []sis.Hint, gen uint64) *hintTable {
	m := make(map[uint64]sis.Hint, len(hints))
	for _, h := range hints {
		m[h.TemplateHash] = h
	}
	return &hintTable{hints: m, gen: gen}
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
// tests compare.
func (c *HintCache) Export() ([]sis.Hint, uint64) {
	t := c.cur.Load()
	out := make([]sis.Hint, 0, len(t.hints))
	for _, h := range t.hints {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TemplateHash < out[j].TemplateHash })
	return out, t.gen
}

// Size returns the number of active hints.
func (c *HintCache) Size() int { return len(c.cur.Load().hints) }

// Generation returns the generation of the active table: how many have
// been installed.
func (c *HintCache) Generation() uint64 { return c.cur.Load().gen }

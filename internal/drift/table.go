package drift

import (
	"sync"
	"sync/atomic"
)

// Table is the enforcement side of the safeguard: the set of templates
// whose durable state is non-healthy, read on every rank request and
// written only on (rare) committed transitions. It is copy-on-write
// behind an atomic pointer so the hot-path read is one atomic load
// plus a map lookup — no lock, no allocation — and nil when no
// template has ever been quarantined, which keeps the common case (no
// drift anywhere) to a single predictable-branch pointer check.
//
// Every server holds a Table, including followers and servers with
// detection disabled: enforcement must replicate even where detection
// does not run.
type Table struct {
	mu sync.Mutex                       // serializes writers
	p  atomic.Pointer[map[uint64]State] // nil until first non-healthy state
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{} }

// Blocked reports whether the template's installed hint must be
// refused (only StateQuarantined blocks; probation serves the hint
// tentatively). This is the rank hot path: zero allocations.
func (t *Table) Blocked(hash uint64) bool {
	m := t.p.Load()
	if m == nil {
		return false
	}
	return (*m)[hash] == StateQuarantined
}

// StateOf reports the template's durable state (StateHealthy when
// absent).
func (t *Table) StateOf(hash uint64) State {
	m := t.p.Load()
	if m == nil {
		return StateHealthy
	}
	return (*m)[hash]
}

// Replace installs a complete durable-state map wholesale — the replay
// and snapshot-restore path (quarantine journal records carry the full
// table, so last-record-wins).
func (t *Table) Replace(states map[uint64]State) {
	next := make(map[uint64]State, len(states))
	for k, v := range states {
		if v.Durable() {
			next[k] = v
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.store(next)
}

func (t *Table) store(next map[uint64]State) {
	if len(next) == 0 {
		t.p.Store(nil)
		return
	}
	t.p.Store(&next)
}

// Snapshot copies the durable-state map (nil-safe, possibly empty).
func (t *Table) Snapshot() map[uint64]State {
	m := t.p.Load()
	if m == nil {
		return map[uint64]State{}
	}
	out := make(map[uint64]State, len(*m))
	for k, v := range *m {
		out[k] = v
	}
	return out
}

// Counts reports the durable population by state.
func (t *Table) Counts() (quarantined, probation int) {
	m := t.p.Load()
	if m == nil {
		return 0, 0
	}
	for _, v := range *m {
		switch v {
		case StateQuarantined:
			quarantined++
		case StateProbation:
			probation++
		}
	}
	return quarantined, probation
}

package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"qoadvisor/internal/api"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// safeguard wires the drift package into the server: detection (on a
// primary with -drift enabled), journaled state-machine commits, and
// the enforcement table every rank request consults. The split
// mirrors the cluster: every node enforces (the table replicates via
// walrec.TagQuarantine records), only the primary detects (the sketches are
// in-memory statistics; replaying rewards would not reproduce them
// bit-identically anyway, so only transitions are durable).
//
// Commit protocol (the fail-stop invariant): a proposed transition is
// journaled FIRST — the record carrying the full post-transition
// table — and only a successful append commits the detector state and
// swaps the enforcement table. A journal failure leaves both
// untouched and surfaces as *api.Error(CodeInternal); the detector
// re-proposes on the next observation, so the safeguard can never
// hold state the journal does not.
type safeguard struct {
	det   *drift.Detector // nil: enforcement-only node
	table *drift.Table    // never nil
	wal   *wal.WAL        // nil: in-memory server (transitions uncommitted to disk)

	// mu orders transition journal appends against table swaps: two
	// racing transitions must append in the order their tables are
	// installed, or replay would finish on the older table.
	mu sync.Mutex

	blockedRanks atomic.Int64
	transitions  atomic.Int64
	quarantines  atomic.Int64
	probations   atomic.Int64
	restores     atomic.Int64
	manualMoves  atomic.Int64
	journalErrs  atomic.Int64

	// notify observes committed transitions (the incident engine's
	// quarantine trigger). Called with g.mu held, so it must not block.
	notify atomic.Pointer[func(drift.Transition)]
}

// setNotify installs the committed-transition observer.
func (g *safeguard) setNotify(fn func(drift.Transition)) {
	g.notify.Store(&fn)
}

func newSafeguard(det *drift.Detector, w *wal.WAL) *safeguard {
	return &safeguard{det: det, table: drift.NewTable(), wal: w}
}

// blocked is the rank-path enforcement check: one atomic load on the
// (common) no-quarantine path, zero allocations always. The counter
// only advances on an actual block, so the hot path stays untouched.
func (g *safeguard) blocked(hash uint64) bool {
	if !g.table.Blocked(hash) {
		return false
	}
	g.blockedRanks.Add(1)
	return true
}

// observe feeds one attributed reward to the detector and commits any
// transition it proposes. Nil-detector nodes (followers, detection
// disabled) ignore observations.
func (g *safeguard) observe(hash uint64, reward float64) error {
	if g.det == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	tr, ok := g.det.Observe(hash, reward)
	if !ok {
		return nil
	}
	return g.commitLocked(tr)
}

// setManual applies an operator transition from POST /v2/quarantine:
// quarantine forces StateQuarantined, restore forces StateHealthy
// (skipping probation — the operator is overriding the detector).
func (g *safeguard) setManual(hash uint64, quarantine bool) (drift.Transition, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.table.StateOf(hash)
	to := drift.StateQuarantined
	if !quarantine {
		to = drift.StateHealthy
	}
	if cur == to {
		return drift.Transition{}, api.Errorf(api.CodeInvalidRequest,
			"template %016x is already %s", hash, cur)
	}
	tr := drift.Transition{TemplateHash: hash, From: cur, To: to, Manual: true}
	if err := g.commitLocked(tr); err != nil {
		return drift.Transition{}, err
	}
	return tr, nil
}

// commitLocked journals and applies one transition (g.mu held).
func (g *safeguard) commitLocked(tr drift.Transition) error {
	next := g.table.Snapshot()
	if tr.To.Durable() {
		next[tr.TemplateHash] = tr.To
	} else {
		delete(next, tr.TemplateHash)
	}
	if g.wal != nil {
		lsn, err := g.wal.Append(walrec.EncodeQuarantine(next, false, tr.Manual))
		if err == nil {
			// Same durability barrier as an accepted reward batch: in sync
			// mode the transition is on disk before it takes effect.
			err = g.wal.Commit(lsn)
		}
		if err != nil {
			g.journalErrs.Add(1)
			return api.Errorf(api.CodeInternal,
				"journaling quarantine transition for template %016x: %v", tr.TemplateHash, err)
		}
	}
	if g.det != nil {
		g.det.Commit(tr)
	}
	g.table.Replace(next)
	g.transitions.Add(1)
	switch tr.To {
	case drift.StateQuarantined:
		g.quarantines.Add(1)
	case drift.StateProbation:
		g.probations.Add(1)
	case drift.StateHealthy:
		g.restores.Add(1)
	}
	if tr.Manual {
		g.manualMoves.Add(1)
	}
	if fn := g.notify.Load(); fn != nil {
		(*fn)(tr)
	}
	return nil
}

// journalState re-appends the durable quarantine table — the
// checkpoint/bootstrap path, called with the snapshot watermark
// already fixed so the record lands above it (exactly like
// journalHints). An empty table is skipped: replay from any snapshot
// starts with an empty table, so absence IS the empty state, and
// skipping keeps restored templates from leaving stale empty records
// to re-apply.
func (g *safeguard) journalState() error {
	if g.wal == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	snap := g.table.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	_, err := g.wal.Append(walrec.EncodeQuarantine(snap, true, false))
	return err
}

// restore seeds the safeguard from recovered journal state without
// re-journaling (the records that produced it are already in the
// log). Detector statistics start fresh — only the state machine
// position is durable.
func (g *safeguard) restore(states map[uint64]drift.State) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.table.Replace(states)
	if g.det != nil {
		g.det.Restore(states)
	}
}

// stats assembles the /v2/stats drift block.
func (g *safeguard) stats(templateLimit int) *api.DriftStats {
	out := &api.DriftStats{
		Enabled:      g.det != nil,
		BlockedRanks: g.blockedRanks.Load(),
		Transitions:  g.transitions.Load(),
		Quarantines:  g.quarantines.Load(),
		Probations:   g.probations.Load(),
		Restores:     g.restores.Load(),
		Manual:       g.manualMoves.Load(),
		JournalErrs:  g.journalErrs.Load(),
	}
	out.QuarantinedNow, out.ProbationNow = g.table.Counts()
	if g.det != nil {
		ds := g.det.Stats()
		out.Tracked = ds.Tracked
		out.Observations = ds.Observations
		out.SketchGated = ds.SketchGated
		out.Evictions = ds.Evictions
		out.SketchBytes = ds.SketchBytes
		out.Suspects = ds.Suspects
		for _, ts := range g.det.Templates(templateLimit) {
			out.Templates = append(out.Templates, api.DriftTemplateStats{
				TemplateHash: api.TemplateHash(ts.TemplateHash),
				State:        ts.State.String(),
				Score:        ts.Score,
				FastMean:     ts.FastMean,
				SlowMean:     ts.SlowMean,
				Observations: int64(ts.Observations),
			})
		}
	} else {
		// Enforcement-only node: the table is still the durable truth.
		for hash, st := range g.table.Snapshot() {
			out.Templates = append(out.Templates, api.DriftTemplateStats{
				TemplateHash: api.TemplateHash(hash),
				State:        st.String(),
			})
		}
		sort.Slice(out.Templates, func(i, j int) bool {
			return out.Templates[i].TemplateHash < out.Templates[j].TemplateHash
		})
	}
	return out
}

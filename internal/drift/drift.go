// Package drift is the online drift safeguard: per-template streaming
// reward statistics that detect plan regressions after a hint is
// installed, and a quarantine state machine that decides when a
// template's hint must stop being served. The paper's production
// deployment catches regressions offline (validation + flighting);
// this package closes the gap for regressions that develop AFTER
// rollout — a data or workload shift that turns yesterday's validated
// hint into today's liability.
//
// Memory stays bounded under open-ended template churn with a two-tier
// design in the COMPASS tradition: every observation lands in a
// count-min sketch over template hashes (fixed memory, no per-template
// state), and only templates the sketch has seen at least gateCount
// times graduate to an exact per-template entry holding the decayed
// statistics. Exact entries are further capped at maxTemplates with
// eviction of the least-recently-seen healthy entry.
//
// Detection is a dual-EWMA contrast: a slow exponentially-decayed
// mean/variance tracks the template's reward baseline, a fast EWMA
// tracks its recent level, and the drift score is the gap between them
// in baseline standard deviations. A persistent reward collapse drives
// the score up; the state machine quarantines only after the score
// stays degraded for quarantineAfter consecutive observations
// (hysteresis — one noisy batch cannot flap a hint), and restores only
// after a probation period of sustained recovery.
//
// The detector itself holds no durability or enforcement concerns:
// Observe proposes state transitions and the caller commits them after
// journaling (internal/serve owns that), so an unjournalable
// transition is never half-applied.
package drift

import (
	"math"
	"sort"
	"sync"
)

// State is a template's position in the quarantine state machine.
type State uint8

const (
	// StateHealthy: the installed hint (if any) is served normally.
	StateHealthy State = iota
	// StateSuspect: the drift score is degraded but has not persisted
	// long enough to act on. In-memory only — suspicion is noisy by
	// design and is never journaled or replicated.
	StateSuspect
	// StateQuarantined: the template's hint is refused; rank requests
	// fall back to the bandit/exploration path.
	StateQuarantined
	// StateProbation: rewards have recovered; the hint is served again
	// tentatively while the detector watches for relapse.
	StateProbation
)

// String renders the canonical wire form ("healthy", "suspect",
// "quarantined", "probation").
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateQuarantined:
		return "quarantined"
	case StateProbation:
		return "probation"
	default:
		return "unknown"
	}
}

// Durable reports whether the state survives in the journal: Healthy
// and Suspect are the implicit default (absent from quarantine
// records); Quarantined and Probation are carried explicitly.
func (s State) Durable() bool { return s == StateQuarantined || s == StateProbation }

// Transition is one proposed or committed state-machine move. Score is
// the drift score at proposal time; Manual marks operator-initiated
// transitions (the admin endpoint) as opposed to detector-initiated.
type Transition struct {
	TemplateHash uint64
	From, To     State
	Score        float64
	Manual       bool
}

// The detector's fixed parameters. None has ever been run at another
// value: the decays set what "baseline" and "recent" mean for every
// threshold below, and the sketch is sized for the templates one node
// sees (4 rows of 1024 counters, 16 KiB).
const (
	// fastAlpha is the decay of the fast (recent-level) EWMA.
	fastAlpha float64 = 0.08
	// slowAlpha is the decay of the slow (baseline) EWMA and its
	// exponentially-weighted variance.
	slowAlpha float64 = 0.005
	// sketchWidth and sketchDepth size the count-min sketch (width
	// counters per row, depth rows).
	sketchWidth = 1024
	sketchDepth = 4
)

// The safeguard's thresholds and windows. No caller has ever set
// another value; a Config carries them so that this package's tests can
// shorten the windows.
const (
	// threshold is the drift score (baseline standard deviations below
	// baseline mean) at or above which an observation counts as
	// degraded; at or below half of it a quarantined or probation
	// template's observation counts as recovered (the gap is the score
	// hysteresis band).
	threshold = 4.0
	// minSamples is how many observations a template needs before its
	// score is trusted at all.
	minSamples = 32
	// quarantineAfter is how many consecutive degraded observations a
	// suspect template needs to be quarantined.
	quarantineAfter = 16
	// probationAfter is how many consecutive recovered observations a
	// quarantined template needs to enter probation.
	probationAfter = 16
	// restoreAfter is how many consecutive recovered observations a
	// probation template needs to be restored to healthy.
	restoreAfter = 32
	// gateCount is the sketch estimate a template needs before the
	// detector allocates an exact entry for it.
	gateCount = 4
	// maxTemplates caps exact entries; beyond it the least-recently-seen
	// healthy entry is evicted (non-healthy entries are never evicted).
	maxTemplates = 4096
)

// Config is the detector's parameters. Outside this package the only
// value is DefaultConfig(); the zero Config means the same.
type Config struct {
	threshold       float64
	minSamples      int
	quarantineAfter int
	probationAfter  int
	restoreAfter    int
	gateCount       uint32
	maxTemplates    int
}

// DefaultConfig returns the safeguard's parameters.
func DefaultConfig() Config {
	return Config{
		threshold:       threshold,
		minSamples:      minSamples,
		quarantineAfter: quarantineAfter,
		probationAfter:  probationAfter,
		restoreAfter:    restoreAfter,
		gateCount:       gateCount,
		maxTemplates:    maxTemplates,
	}
}

// entry is one template's exact tracking state.
type entry struct {
	state    State
	fast     float64 // fast EWMA of reward
	slow     float64 // slow EWMA of reward (baseline)
	variance float64 // exponentially-weighted variance around slow
	count    uint64  // observations since tracking began

	// The entry's place in the detector's recency list (eviction order),
	// and the key to delete it from the map by.
	hash       uint64
	prev, next *entry

	// Hysteresis run counters. degraded counts consecutive degraded
	// observations; recovered counts consecutive recovered ones. A
	// proposal does not reset them — only Commit does — so an
	// unjournalable transition is re-proposed on the next observation.
	degraded  int
	recovered int
}

// Detector holds the streaming statistics and the state machine. All
// methods are safe for concurrent use; the hot path (Observe) takes
// one mutex, updates a handful of floats, and allocates only when a
// template first graduates from the sketch.
type Detector struct {
	cfg Config

	mu      sync.Mutex
	sketch  []uint32 // depth rows of width counters, row-major
	entries map[uint64]*entry
	// recency is the sentinel of a circular list of every entry, least
	// recently observed first: an observation moves its entry to the
	// back, a new entry joins at the back.
	recency entry

	observations int64
	gated        int64 // observations absorbed by the sketch alone
	evictions    int64
}

// NewDetector builds a detector.
func NewDetector(cfg Config) *Detector {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	d := &Detector{
		cfg:     cfg,
		sketch:  make([]uint32, sketchWidth*sketchDepth),
		entries: make(map[uint64]*entry),
	}
	d.recency.prev, d.recency.next = &d.recency, &d.recency
	return d
}

// track files e under hash as the most recently seen entry.
func (d *Detector) track(hash uint64, e *entry) {
	e.hash = hash
	d.entries[hash] = e
	d.moveToBack(e)
}

// moveToBack makes e the most recently seen entry; e may be unlinked.
func (d *Detector) moveToBack(e *entry) {
	if e.prev != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	back := d.recency.prev
	e.prev, e.next = back, &d.recency
	back.next, d.recency.prev = e, e
}

// mix64 is splitmix64's finalizer — the same mixer the bandit uses for
// feature hashing. Each sketch row salts the template hash with an odd
// constant derived from the row index so the rows are independent.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sketchAdd increments the template's counters and returns the new
// count-min estimate.
func (d *Detector) sketchAdd(hash uint64) uint32 {
	est := uint32(math.MaxUint32)
	for row := uint64(0); row < sketchDepth; row++ {
		h := mix64(hash + row*0x9e3779b97f4a7c15)
		c := &d.sketch[row*sketchWidth+h%sketchWidth]
		if *c != math.MaxUint32 {
			*c++
		}
		if *c < est {
			est = *c
		}
	}
	return est
}

// score computes the drift score for an entry: how many baseline
// standard deviations the fast (recent) reward level sits BELOW the
// slow baseline. Positive = rewards collapsing; zero or negative =
// recent rewards at or above baseline. A variance floor keeps
// near-constant reward streams from dividing by zero — for those, any
// real drop produces a large finite score, which is the desired
// behavior.
func (e *entry) score() float64 {
	std := math.Sqrt(e.variance)
	floor := 1e-9 + 0.001*math.Abs(e.slow)
	if std < floor {
		std = floor
	}
	return (e.slow - e.fast) / std
}

// Observe feeds one reward observation for a template and returns a
// proposed durable transition when the state machine wants one. The
// caller must journal the transition and then Commit it; until Commit,
// the entry's counters hold and the same transition is re-proposed on
// subsequent observations (fail-stop: a transition that cannot be made
// durable is never applied). Healthy↔Suspect moves are internal and
// committed immediately.
//
// NaN and infinite rewards must be rejected upstream; Observe drops
// them defensively (they would poison the decayed statistics).
func (d *Detector) Observe(hash uint64, reward float64) (Transition, bool) {
	if math.IsNaN(reward) || math.IsInf(reward, 0) {
		return Transition{}, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.observations++

	e, ok := d.entries[hash]
	if ok {
		d.moveToBack(e)
	} else {
		if est := d.sketchAdd(hash); est < d.cfg.gateCount {
			// Below the graduation gate: the sketch absorbed it, no
			// per-template state exists yet.
			d.gated++
			return Transition{}, false
		}
		if len(d.entries) < d.cfg.maxTemplates {
			e = new(entry)
		} else if e = d.evictLocked(); e == nil {
			d.gated++
			return Transition{}, false
		}
		*e = entry{fast: reward, slow: reward}
		d.track(hash, e)
	}
	e.count++

	// Decayed statistics: slow baseline with exponentially-weighted
	// variance (West's recurrence), fast recent level. The baseline is
	// robustified: once established, a sample far BELOW it — the
	// regression signature — must not be absorbed into the baseline
	// mean/variance at full rate, or a sustained collapse would inflate
	// the variance fast enough to normalize itself below the score
	// threshold before the hysteresis window fills. Outlier samples
	// instead drag the mean at 1/8 rate (so a genuine permanent shift
	// still becomes the new baseline, over thousands of observations)
	// and leave the variance untouched.
	delta := reward - e.slow
	std := math.Sqrt(e.variance)
	if floor := 1e-9 + 0.001*math.Abs(e.slow); std < floor {
		std = floor
	}
	if e.count >= uint64(d.cfg.minSamples) && -delta >= d.cfg.threshold*std {
		e.slow += slowAlpha / 8 * delta
	} else {
		e.slow += slowAlpha * delta
		e.variance = (1 - slowAlpha) * (e.variance + slowAlpha*delta*delta)
	}
	e.fast += fastAlpha * (reward - e.fast)

	if e.count < uint64(d.cfg.minSamples) {
		return Transition{}, false
	}
	s := e.score()
	degraded := s >= d.cfg.threshold
	recovered := s <= d.cfg.threshold/2
	if degraded {
		e.degraded++
	} else {
		e.degraded = 0
	}
	if recovered {
		e.recovered++
	} else {
		e.recovered = 0
	}

	switch e.state {
	case StateHealthy:
		if degraded {
			e.state = StateSuspect // internal move, not journaled
		}
	case StateSuspect:
		if e.degraded >= d.cfg.quarantineAfter {
			return Transition{TemplateHash: hash, From: StateSuspect, To: StateQuarantined, Score: s}, true
		}
		if !degraded {
			e.state = StateHealthy // suspicion cleared, internal move
		}
	case StateQuarantined:
		if e.recovered >= d.cfg.probationAfter {
			return Transition{TemplateHash: hash, From: StateQuarantined, To: StateProbation, Score: s}, true
		}
	case StateProbation:
		if e.degraded >= 1 {
			// Relapse during probation: straight back to quarantine, no
			// suspect dwell — the template already proved it can regress.
			return Transition{TemplateHash: hash, From: StateProbation, To: StateQuarantined, Score: s}, true
		}
		if e.recovered >= d.cfg.restoreAfter {
			return Transition{TemplateHash: hash, From: StateProbation, To: StateHealthy, Score: s}, true
		}
	}
	return Transition{}, false
}

// Commit applies a proposed (and now journaled) transition: the entry
// moves to the target state and its hysteresis counters reset. Manual
// transitions on untracked templates allocate an entry so the detector
// can observe the template's recovery.
func (d *Detector) Commit(t Transition) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[t.TemplateHash]
	if !ok {
		e = new(entry)
		d.track(t.TemplateHash, e)
	}
	e.state = t.To
	e.degraded = 0
	e.recovered = 0
}

// Restore seeds a template's state without a transition — the
// crash-recovery and follower-promotion path (the journal already
// holds the record that produced this state). Statistics start fresh;
// only the state machine position is durable.
func (d *Detector) Restore(states map[uint64]State) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for hash, st := range states {
		if !st.Durable() {
			continue
		}
		e, ok := d.entries[hash]
		if !ok {
			e = new(entry)
			d.track(hash, e)
		}
		e.state = st
		e.degraded = 0
		e.recovered = 0
	}
}

// evictLocked removes the least-recently-seen healthy entry to make
// room and returns it, unlinked, for the admission that needed the room
// to reuse. It returns nil when every entry is non-healthy (those pin
// their slots: evicting a quarantined template would silently lift its
// safeguard on the detector side). Pinned entries at the front of the
// list are walked past, not moved: they are a handful, and they keep
// their place for when they are healthy again.
func (d *Detector) evictLocked() *entry {
	for e := d.recency.next; e != &d.recency; e = e.next {
		if e.state != StateHealthy || e.degraded > 0 {
			continue
		}
		e.prev.next, e.next.prev = e.next, e.prev
		e.prev, e.next = nil, nil
		delete(d.entries, e.hash)
		d.evictions++
		return e
	}
	return nil
}

// TemplateStats is one tracked template's public view.
type TemplateStats struct {
	TemplateHash uint64
	State        State
	Score        float64
	FastMean     float64
	SlowMean     float64
	Observations uint64
}

// Stats is the detector's aggregate view.
type Stats struct {
	Tracked      int   // exact entries
	Observations int64 // total rewards observed
	SketchGated  int64 // observations absorbed by the sketch alone
	Evictions    int64
	SketchBytes  int
	Suspects     int
	Quarantined  int
	Probation    int
}

// Stats snapshots the aggregate counters.
func (d *Detector) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Stats{
		Tracked:      len(d.entries),
		Observations: d.observations,
		SketchGated:  d.gated,
		Evictions:    d.evictions,
		SketchBytes:  len(d.sketch) * 4,
	}
	for _, e := range d.entries {
		switch e.state {
		case StateSuspect:
			s.Suspects++
		case StateQuarantined:
			s.Quarantined++
		case StateProbation:
			s.Probation++
		}
	}
	return s
}

// Templates returns per-template stats for every non-healthy template
// plus the top worst-scoring healthy ones up to limit total entries
// (limit <= 0 means non-healthy only). Sorted by score descending.
func (d *Detector) Templates(limit int) []TemplateStats {
	d.mu.Lock()
	out := make([]TemplateStats, 0, len(d.entries))
	for hash, e := range d.entries {
		out = append(out, TemplateStats{
			TemplateHash: hash,
			State:        e.state,
			Score:        e.score(),
			FastMean:     e.fast,
			SlowMean:     e.slow,
			Observations: e.count,
		})
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		// Non-healthy templates first (they are the operational signal),
		// then by score descending, hash as the deterministic tiebreak.
		hi, hj := out[i].State == StateHealthy, out[j].State == StateHealthy
		if hi != hj {
			return hj
		}
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].TemplateHash < out[j].TemplateHash
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	} else if limit <= 0 {
		n := 0
		for _, t := range out {
			if t.State != StateHealthy {
				n++
			}
		}
		out = out[:n]
	}
	return out
}

// Package featurize is the steering decision's feature contract: the
// bandit context of a job and the action set of its span, as pre-hashed
// feature IDs (§4.2 and §6: span co-occurrence features). The offline
// pipeline and the online service both featurize through it, so trained
// weights, journal records and snapshots mean the same thing in either
// program. It imports only rules and bandit.
//
// Features are emitted as pre-hashed 64-bit IDs built by integer mixing
// of span bits — no fmt.Sprintf, no string hashing on the Rank hot path.
// Each feature family gets a distinct tag constant so "span bit 3" can
// never collide with "rows bucket 3" by construction rather than by
// string prefixing.
package featurize

import (
	"math"
	"sync"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/rules"
)

// featureMixK aliases the bandit's mixing constant: the featurizer and
// the learner's pair index must stay in the same hash space, so the
// constant and the bandit.Mix64 finalizer live in one place (the bandit).
const featureMixK = bandit.MixGamma

// Feature-family tags (arbitrary distinct constants).
const (
	tagSpan uint64 = iota + 0x51
	tagSpan2
	tagSpan3
	tagSpanAll
	tagRows
	tagBytes
	tagVertices
	tagActNoop
	tagActRule
	tagActKind
	tagActCat
	tagActKindDir
)

func feat1(tag, a uint64) uint64 { return bandit.Mix64(tag*featureMixK + a + 1) }
func feat2(tag, a, b uint64) uint64 {
	return bandit.Mix64(bandit.Mix64(tag*featureMixK+a+1)*featureMixK + b + 1)
}
func feat3(tag, a, b, c uint64) uint64 {
	return bandit.Mix64(bandit.Mix64(bandit.Mix64(tag*featureMixK+a+1)*featureMixK+b+1)*featureMixK + c + 1)
}

// Context builds the bandit context for a job: the complete job span as
// bit-position indicators with second and third order co-occurrence
// crosses ("the surprising effectiveness of span features"), plus coarse
// input-size information (the job's row count and bytes read). All
// features are pre-hashed IDs computed once at featurization; Rank never
// hashes strings. The slice is sized to the span — the event log keeps
// it for the life of the event.
func Context(span rules.Bitset, rows, bytes float64) bandit.Context {
	var buf [rules.NumRules]int
	bits := span.AppendBits(buf[:0])
	const maxPairs, maxTriples = 60, 40
	nb := len(bits)
	ids := make([]uint64, 0, nb+min(nb*(nb-1)/2, maxPairs)+min(nb*(nb-1)*(nb-2)/6, maxTriples)+3)
	for _, b := range bits {
		ids = append(ids, feat1(tagSpan, uint64(b)))
	}
	// Second and third order co-occurrence indicators, capped so long-tail
	// spans do not dilute per-feature credit.
	n := 0
	for i := 0; i < len(bits) && n < maxPairs; i++ {
		for j := i + 1; j < len(bits) && n < maxPairs; j++ {
			ids = append(ids, feat2(tagSpan2, uint64(bits[i]), uint64(bits[j])))
			n++
		}
	}
	n = 0
	for i := 0; i < len(bits) && n < maxTriples; i++ {
		for j := i + 1; j < len(bits) && n < maxTriples; j++ {
			for k := j + 1; k < len(bits) && n < maxTriples; k++ {
				ids = append(ids, feat3(tagSpan3, uint64(bits[i]), uint64(bits[j]), uint64(bits[k])))
				n++
			}
		}
	}
	// The complete span as one identity feature: "the complete set of bit
	// positions in the job span provides valuable and concise information"
	// (§6) — this is the highest-order co-occurrence indicator.
	all := tagSpanAll
	for _, b := range bits {
		all = bandit.Mix64(all*featureMixK + uint64(b) + 1)
	}
	ids = append(ids, all)
	// Input stream properties: log-bucketed row count and bytes read
	// ("representing some properties of the input data streams provided
	// marginal improvement").
	ids = append(ids,
		feat1(tagRows, uint64(logBucket(rows))),
		feat1(tagBytes, uint64(logBucket(bytes))),
	)
	return bandit.Context{IDs: ids}
}

// Basic builds a context without any span information: only the coarse
// input-stream properties and the plan's vertex count, in Context's tag
// space. The paper found such plan-level featurizations "mostly
// ineffective" compared to span co-occurrence features (§6).
func Basic(rows, bytes, vertices float64) bandit.Context {
	return bandit.Context{IDs: []uint64{
		feat1(tagRows, uint64(logBucket(rows))),
		feat1(tagBytes, uint64(logBucket(bytes))),
		feat1(tagVertices, uint64(logBucket(vertices))),
	}}
}

func logBucket(x float64) int {
	if x <= 1 {
		return 0
	}
	return int(math.Log10(x))
}

// actionTable is the featurization of every single-rule flip of one
// catalog — a pure function of it, built once. Every action Actions
// hands out aliases these arrays: they are immutable after construction.
type actionTable struct {
	noop    bandit.Action
	actions [rules.NumRules]bandit.Action
	ids     [rules.NumRules][4]uint64
}

// actionTables memoizes actionTable per *rules.Catalog: one entry per
// catalog the process builds (one, outside tests).
var actionTables sync.Map

func actionTableFor(cat *rules.Catalog) *actionTable {
	if t, ok := actionTables.Load(cat); ok {
		return t.(*actionTable)
	}
	t := &actionTable{noop: bandit.Action{ID: "noop", IDs: []uint64{feat1(tagActNoop, 0)}}}
	for _, r := range cat.All() {
		flip := cat.FlipFor(r.ID)
		enable := uint64(0)
		if flip.Enable {
			enable = 1
		}
		t.ids[r.ID] = [4]uint64{
			feat1(tagActRule, uint64(r.ID)),
			feat1(tagActKind, uint64(r.Kind)),
			feat1(tagActCat, uint64(r.Category)),
			// Kind crossed with flip direction: the decisive signal
			// ("disabling compression helps", "enabling it hurts").
			feat2(tagActKindDir, uint64(r.Kind), enable),
		}
		t.actions[r.ID] = bandit.Action{ID: flip.String(), IDs: t.ids[r.ID][:]}
	}
	actual, _ := actionTables.LoadOrStore(cat, t)
	return actual.(*actionTable)
}

// Actions builds the bandit action set for a span: no-op plus one flip
// per span rule, "corresponding to either changing nothing (1) or
// flipping a single bit in the span (S)". Actions are featurized by rule
// ID, rule kind and rule category as pre-hashed feature IDs, and named by
// their flip's hint-file form (rules.Flip.String; "noop" for action 0).
// The feature IDs are shared with every other action set of the catalog:
// read-only.
func Actions(cat *rules.Catalog, span rules.Bitset) []bandit.Action {
	t := actionTableFor(cat)
	var buf [rules.NumRules]int
	bits := span.AppendBits(buf[:0])
	actions := make([]bandit.Action, 1, len(bits)+1)
	actions[0] = t.noop
	for _, b := range bits {
		actions = append(actions, t.actions[b])
	}
	return actions
}

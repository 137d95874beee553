package serve

import (
	"fmt"

	"qoadvisor/internal/drift"
	"qoadvisor/internal/walrec"
)

// Drift-safeguard state is journaled as walrec.TagQuarantine records
// (tag 5; tags 1-3 belong to qoadvisor/internal/bandit, tag 4 is the
// hint rollover). Like hint rollovers, each record carries the
// COMPLETE durable quarantine table — every template currently
// quarantined or on probation — so replay is last-record-wins: a
// transition record and the checkpoint-time re-journal use the same
// encoding, and a follower applying any one record holds the full
// safeguard state as of that LSN. Healthy and suspect templates are
// absent by construction (healthy is the implicit default; suspicion
// is noisy and deliberately never durable).
//
// The wire codec lives in qoadvisor/internal/walrec (shared with the
// audit engine); these wrappers enforce the drift-state durability
// invariant the wire layer cannot know about.

// encodeQuarantine frames the durable quarantine table:
//
//	[tag][flags][uvarint count] per template: [8-byte hash][state byte]
//
// Iteration order is unspecified; decode builds a map, so records with
// the same content replay identically regardless of encoding order.
// Only durable states belong in the journal — anything else is
// dropped defensively before encoding.
func encodeQuarantine(states map[uint64]drift.State, snapshot, manual bool) []byte {
	raw := make(map[uint64]byte, len(states))
	for hash, st := range states {
		if !st.Durable() {
			continue
		}
		raw[hash] = byte(st)
	}
	return walrec.EncodeQuarantine(raw, snapshot, manual)
}

// decodeQuarantine parses a walrec.TagQuarantine payload.
func decodeQuarantine(p []byte) (states map[uint64]drift.State, snapshot, manual bool, err error) {
	rec, err := walrec.DecodeQuarantine(p)
	if err != nil {
		return nil, false, false, err
	}
	states = make(map[uint64]drift.State, len(rec.States))
	for hash, raw := range rec.States {
		st := drift.State(raw)
		if !st.Durable() {
			return nil, false, false, fmt.Errorf("serve: quarantine record carries non-durable state %d for template %016x", st, hash)
		}
		states[hash] = st
	}
	return states, rec.Snapshot, rec.Manual, nil
}

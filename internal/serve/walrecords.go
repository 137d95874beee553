package serve

import (
	"fmt"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/walrec"
)

// A hint-table rollover is journaled as a walrec.TagHintRollover
// record (tag 4; tags 1-3 belong to qoadvisor/internal/bandit).
// Journaling rollovers closes the durability gap the model-only
// snapshot left — a restart used to come back with a trained bandit
// and an EMPTY hint cache — and is what lets followers replicate the
// hint table in decision order, interleaved with the rank and reward
// records it steers.
//
// Each record carries the COMPLETE table (Replace semantics are
// wholesale, matching the daily pipeline's output) plus the cache
// generation it installed, so replay restores not just the hints but
// the exact generation number clients observe in responses — a
// follower's /v2/rank answers are byte-identical to the primary's
// only if the generation matches too. Checkpoints and follower
// bootstraps re-journal the live table above the snapshot watermark,
// so compaction can never truncate the only copy.
//
// The wire codec lives in qoadvisor/internal/walrec (shared with the
// audit engine); these wrappers convert between the wire-level string
// flip and the typed sis.Hint the serve layer uses — on the way out one
// hint at a time (walrec.AppendHint), so journaling a table does not
// first build a second, wire-typed copy of it.

// encodeHintRollover frames one hint-table rollover:
//
//	[tag][uvarint generation][uvarint count]
//	per hint: [8-byte hash][string templateID][string flip][uvarint day]
func encodeHintRollover(gen uint64, hints []sis.Hint) []byte {
	// Capacity, not a limit: a catalog flip renders in five bytes
	// ("+R255"), and a table with a rule outside the catalog grows the
	// buffer instead.
	idBytes, _ := hintArena(hints)
	b := make([]byte, 0, walrec.HintRolloverSizeMax(len(hints), int(idBytes), 5*len(hints)))
	b = walrec.AppendHintRolloverHeader(b, gen, len(hints))
	for i := range hints {
		h := &hints[i]
		b = walrec.AppendHint(b, h.TemplateHash, h.TemplateID, h.Flip.String(), h.Day)
	}
	return b
}

// decodeHintRollover parses a walrec.TagHintRollover payload.
func decodeHintRollover(p []byte) (gen uint64, hints []sis.Hint, err error) {
	rec, err := walrec.DecodeHintRollover(p)
	if err != nil {
		return 0, nil, err
	}
	hints = make([]sis.Hint, 0, len(rec.Hints))
	for _, h := range rec.Hints {
		flip, err := rules.ParseFlip(h.Flip)
		if err != nil {
			return 0, nil, fmt.Errorf("serve: hint record: %w", err)
		}
		hints = append(hints, sis.Hint{
			TemplateHash: h.TemplateHash,
			TemplateID:   h.TemplateID,
			Flip:         flip,
			Day:          h.Day,
		})
	}
	return rec.Gen, hints, nil
}

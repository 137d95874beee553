package audit

import (
	"fmt"
	"slices"

	"qoadvisor/internal/drift"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/walrec"
)

// The canned queries answer two of the three explainability questions
// the roadmap names: the decision trace for an event ("why did job X
// get flip Y" — what was ranked, what rewards came back, when it
// trained) and the flip/quarantine lineage of a template's steering
// history. The third, the as-of belief at an LSN, is recovery with an
// upper bound: serve.RecoverAsOf.

// TraceReward is one reward observed for the traced event.
type TraceReward struct {
	LSN   uint64
	Value float64
}

// LineageReward is one reward that trained weights the traced
// decision read: its event shares at least one action feature with
// the traced event, and it was applied before the trace's rank.
type LineageReward struct {
	LSN     uint64
	EventID string
	Value   float64
}

// DecisionTrace reconstructs one decision's history from the journal.
type DecisionTrace struct {
	EventID string
	// RankLSN/Rank are the logged decision (nil Rank: the event is not
	// in the journal — never made, or compacted away).
	RankLSN uint64
	Rank    *walrec.Rank
	// Rewards are the event's observed rewards in LSN order.
	Rewards []TraceReward
	// TrainedAtLSN is the first train mark after the last reward: the
	// rewards were weight updates by then at the latest. A count-based
	// pass (every bandit.DefaultTrainEvery applied rewards) leaves no
	// record, so training may have come earlier. 0 when no train mark
	// follows.
	TrainedAtLSN uint64
	// Lineage are rewards applied BEFORE this decision whose events
	// share action features with it — the observations that trained
	// the weights this decision was scored with. Bounded by the
	// lineage cap, newest first.
	Lineage []LineageReward
	// LineageTruncated reports that the cap cut the lineage short.
	LineageTruncated bool
	// Scan aggregates the scan counters across the trace's passes.
	Scan ScanStats
}

// maxLineage bounds the lineage pass's memory and output.
const maxLineage = 64

// Trace answers "why did this event get its decision": the rank
// record, its rewards, the first train mark after them, and the reward
// lineage of the weights it was scored with.
func (e *Engine) Trace(eventID string) (*DecisionTrace, error) {
	tr := &DecisionTrace{EventID: eventID}
	// pass runs one query and folds its counters into the trace's.
	pass := func(q Query, fn func(Result) error) error {
		st, err := e.Run(q, fn)
		tr.Scan.add(st)
		return err
	}

	// Pass 1 — the event's own records.
	err := pass(Query{
		Tags:    []byte{walrec.TagRank, walrec.TagRewardBatch},
		EventID: eventID,
	}, func(r Result) error {
		switch r.Rec.Tag {
		case walrec.TagRank:
			if tr.Rank == nil { // event IDs are unique; keep the first
				rank := *r.Rec.Rank
				tr.Rank = &rank
				tr.RankLSN = r.LSN
			}
		case walrec.TagRewardBatch:
			for _, entry := range r.Rec.RewardBatch {
				if entry.EventID == eventID {
					tr.Rewards = append(tr.Rewards, TraceReward{LSN: r.LSN, Value: entry.Value})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr.Rank == nil {
		return tr, nil // unknown event: empty trace, not an error
	}

	// Pass 2 — the first train mark after the last reward: the latest
	// point by which the journal proves it was trained.
	if len(tr.Rewards) > 0 {
		last := tr.Rewards[len(tr.Rewards)-1].LSN
		err := pass(Query{Tags: []byte{walrec.TagTrainMark}, FromLSN: last + 1, Limit: 1}, func(r Result) error {
			tr.TrainedAtLSN = r.LSN
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Pass 3 — reward lineage: rank records BEFORE this decision that
	// share an action feature, and those events' rewards (still before
	// this decision — later ones trained weights this decision never
	// saw). One pass does both: a reward follows its rank in the journal.
	if tr.RankLSN <= 1 {
		return tr, nil
	}
	actSet := make(map[uint64]struct{}, len(tr.Rank.ActIDs))
	for _, id := range tr.Rank.ActIDs {
		actSet[id] = struct{}{}
	}
	related := make(map[string]struct{})
	err = pass(Query{Tags: []byte{walrec.TagRank, walrec.TagRewardBatch}, ToLSN: tr.RankLSN - 1}, func(r Result) error {
		switch r.Rec.Tag {
		case walrec.TagRank:
			for _, id := range r.Rec.Rank.ActIDs {
				if _, hit := actSet[id]; hit {
					related[r.Rec.Rank.EventID] = struct{}{}
					break
				}
			}
		case walrec.TagRewardBatch:
			for _, entry := range r.Rec.RewardBatch {
				if _, hit := related[entry.EventID]; hit {
					tr.Lineage = append(tr.Lineage, LineageReward{LSN: r.LSN, EventID: entry.EventID, Value: entry.Value})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Newest first, capped: the most recent observations dominate the
	// weights anyway.
	slices.Reverse(tr.Lineage)
	if len(tr.Lineage) > maxLineage {
		tr.Lineage = tr.Lineage[:maxLineage]
		tr.LineageTruncated = true
	}
	return tr, nil
}

// TemplateEvent is one change in a template's steering history.
type TemplateEvent struct {
	LSN uint64
	// Kind is "hint", "hint_removed", "quarantine", or
	// "quarantine_cleared".
	Kind string
	// Flip/Day/Gen describe a hint change (Kind "hint").
	Flip rules.Flip
	Day  int
	Gen  uint64
	// State is the durable drift state a quarantine transition entered.
	State drift.State
	// Snapshot marks a checkpoint re-journal rather than a transition.
	Snapshot bool
}

// TemplateHistory is a template's steering lineage: every hint change
// and quarantine transition the journal records for it.
type TemplateHistory struct {
	TemplateHash uint64
	Events       []TemplateEvent
	// Rollovers/QuarantineRecords count the records inspected (each
	// carries a whole table; only changes produce Events).
	Rollovers         int64
	QuarantineRecords int64
	Scan              ScanStats
}

// Template answers "which flips steered this template, and when":
// the hint/quarantine change history extracted from the wholesale
// table records. Consecutive records that repeat the same state
// (checkpoint re-journals) are collapsed to the first occurrence.
func (e *Engine) Template(hash uint64) (*TemplateHistory, error) {
	th := &TemplateHistory{TemplateHash: hash}
	var lastFlip rules.Flip
	var lastDay int
	haveHint := false
	var lastState drift.State
	haveQuar := false
	// Tag filter only — no template key: a removal is proven by a
	// rollover that does NOT carry the hash, which a key filter would
	// drop.
	var err error
	th.Scan, err = e.Run(Query{
		Tags: []byte{walrec.TagHintRollover, walrec.TagQuarantine},
	}, func(r Result) error {
		switch r.Rec.Tag {
		case walrec.TagHintRollover:
			th.Rollovers++
			found := false
			for _, h := range r.Rec.HintRollover.Hints {
				if h.TemplateHash != hash {
					continue
				}
				found = true
				if !haveHint || h.Flip != lastFlip || h.Day != lastDay {
					th.Events = append(th.Events, TemplateEvent{
						LSN: r.LSN, Kind: "hint", Flip: h.Flip, Day: h.Day, Gen: r.Rec.HintRollover.Gen,
					})
					lastFlip, lastDay, haveHint = h.Flip, h.Day, true
				}
				break
			}
			if !found && haveHint {
				th.Events = append(th.Events, TemplateEvent{LSN: r.LSN, Kind: "hint_removed", Gen: r.Rec.HintRollover.Gen})
				haveHint = false
			}
		case walrec.TagQuarantine:
			th.QuarantineRecords++
			st, present := r.Rec.Quarantine.States[hash]
			switch {
			case present && (!haveQuar || st != lastState):
				th.Events = append(th.Events, TemplateEvent{
					LSN: r.LSN, Kind: "quarantine", State: st, Snapshot: r.Rec.Quarantine.Snapshot,
				})
				lastState, haveQuar = st, true
			case !present && haveQuar:
				th.Events = append(th.Events, TemplateEvent{LSN: r.LSN, Kind: "quarantine_cleared", Snapshot: r.Rec.Quarantine.Snapshot})
				haveQuar = false
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return th, nil
}

// Summary renders a one-line human description of a decoded record —
// the CLI listing and the API's summary column share it.
func Summary(r Result) string {
	switch r.Rec.Tag {
	case walrec.TagRank:
		if r.Rec.Rank != nil {
			return fmt.Sprintf("rank %s prob=%.4f ctx=%d act=%d", r.Rec.Rank.EventID, r.Rec.Rank.Prob, len(r.Rec.Rank.CtxIDs), len(r.Rec.Rank.ActIDs))
		}
	case walrec.TagRewardBatch:
		return fmt.Sprintf("reward_batch n=%d", len(r.Rec.RewardBatch))
	case walrec.TagTrainMark:
		return "train_mark"
	case walrec.TagHintRollover:
		if r.Rec.HintRollover != nil {
			return fmt.Sprintf("hint_rollover gen=%d hints=%d", r.Rec.HintRollover.Gen, len(r.Rec.HintRollover.Hints))
		}
	case walrec.TagQuarantine:
		if r.Rec.Quarantine != nil {
			return fmt.Sprintf("quarantine templates=%d snapshot=%v manual=%v", len(r.Rec.Quarantine.States), r.Rec.Quarantine.Snapshot, r.Rec.Quarantine.Manual)
		}
	}
	if name := walrec.Name(r.Rec.Tag); name != "" {
		return name + " (undecoded)"
	}
	return fmt.Sprintf("unknown tag %d", r.Rec.Tag)
}

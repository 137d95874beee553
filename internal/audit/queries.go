package audit

import (
	"fmt"
	"slices"

	"qoadvisor/internal/api"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/walrec"
)

// The canned queries answer two of the three explainability questions
// the roadmap names: the decision trace for an event ("why did job X
// get flip Y" — what was ranked, what rewards came back, when it
// trained) and the flip/quarantine lineage of a template's steering
// history. The third, the as-of belief at an LSN, is recovery with an
// upper bound: serve.AuditAsOf, over serve.RecoverAsOf. Each answer is
// its api wire type, which the routes send as JSON and render.go prints.

// maxLineage bounds the lineage pass's memory and output.
const maxLineage = 64

// Trace answers "why did this event get its decision": the rank
// record, its rewards, the first train mark after them, and the reward
// lineage of the weights it was scored with. An event the journal does
// not rank (never made, or compacted away) is an answer with Found
// false, not an error.
func (e *Engine) Trace(eventID string) (api.AuditDecisionResponse, error) {
	tr := api.AuditDecisionResponse{EventID: eventID}
	// pass runs one query and folds its counters into the trace's.
	pass := func(q Query, fn func(Result) error) error {
		st, err := e.Run(q, fn)
		addScan(&tr.Scan, st)
		return err
	}

	// Pass 1 — the event's own records.
	var rank walrec.Rank
	err := pass(Query{
		Tags:    []byte{walrec.TagRank, walrec.TagRewardBatch},
		EventID: eventID,
	}, func(r Result) error {
		switch r.Rec.Tag {
		case walrec.TagRank:
			if !tr.Found { // event IDs are unique; keep the first
				rank, tr.Found, tr.RankLSN = *r.Rec.Rank, true, r.LSN
				tr.Prob, tr.CtxIDs, tr.ActIDs = rank.Prob, len(rank.CtxIDs), len(rank.ActIDs)
			}
		case walrec.TagRewardBatch:
			for _, entry := range r.Rec.RewardBatch {
				if entry.EventID == eventID {
					tr.Rewards = append(tr.Rewards, api.AuditRewardRef{LSN: r.LSN, Value: entry.Value})
				}
			}
		}
		return nil
	})
	if err != nil || !tr.Found {
		return tr, err
	}

	// Pass 2 — the first train mark after the last reward: the latest
	// point by which the journal proves it was trained. A count-based
	// pass (every bandit.DefaultTrainEvery applied rewards) leaves no
	// record, so training may have come earlier.
	if len(tr.Rewards) > 0 {
		last := tr.Rewards[len(tr.Rewards)-1].LSN
		err := pass(Query{Tags: []byte{walrec.TagTrainMark}, FromLSN: last + 1, Limit: 1}, func(r Result) error {
			tr.TrainedAtLSN = r.LSN
			return nil
		})
		if err != nil {
			return tr, err
		}
	}

	// Pass 3 — reward lineage: rank records BEFORE this decision that
	// share an action feature, and those events' rewards (still before
	// this decision — later ones trained weights this decision never
	// saw). One pass does both: a reward follows its rank in the journal.
	if tr.RankLSN <= 1 {
		return tr, nil
	}
	actSet := make(map[uint64]struct{}, len(rank.ActIDs))
	for _, id := range rank.ActIDs {
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
					tr.Lineage = append(tr.Lineage, api.AuditRewardRef{LSN: r.LSN, EventID: entry.EventID, Value: entry.Value})
				}
			}
		}
		return nil
	})
	if err != nil {
		return tr, err
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

// Template answers "which flips steered this template, and when":
// the hint/quarantine change history extracted from the wholesale
// table records. Consecutive records that repeat the same state
// (checkpoint re-journals) are collapsed to the first occurrence.
func (e *Engine) Template(hash uint64) (api.AuditTemplateResponse, error) {
	th := api.AuditTemplateResponse{TemplateHash: api.TemplateHash(hash), Events: []api.AuditTemplateEvent{}}
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
					th.Events = append(th.Events, api.AuditTemplateEvent{
						LSN: r.LSN, Kind: "hint", Flip: h.Flip.String(), Day: h.Day, Gen: r.Rec.HintRollover.Gen,
					})
					lastFlip, lastDay, haveHint = h.Flip, h.Day, true
				}
				break
			}
			if !found && haveHint {
				th.Events = append(th.Events, api.AuditTemplateEvent{LSN: r.LSN, Kind: "hint_removed", Gen: r.Rec.HintRollover.Gen})
				haveHint = false
			}
		case walrec.TagQuarantine:
			th.QuarantineRecords++
			st, present := r.Rec.Quarantine.States[hash]
			switch {
			case present && (!haveQuar || st != lastState):
				th.Events = append(th.Events, api.AuditTemplateEvent{
					LSN: r.LSN, Kind: "quarantine", State: st.String(), Snapshot: r.Rec.Quarantine.Snapshot,
				})
				lastState, haveQuar = st, true
			case !present && haveQuar:
				th.Events = append(th.Events, api.AuditTemplateEvent{LSN: r.LSN, Kind: "quarantine_cleared", Snapshot: r.Rec.Quarantine.Snapshot})
				haveQuar = false
			}
		}
		return nil
	})
	return th, err
}

// Row renders a matching record as its listing row — one row of
// /v2/audit/records and of `qoserved audit records` alike.
func (r Result) Row() api.AuditRecord {
	row := api.AuditRecord{LSN: r.LSN, Type: walrec.Name(r.Rec.Tag), Summary: summary(r)}
	if r.Rec.Rank != nil {
		row.EventID = r.Rec.Rank.EventID
	}
	return row
}

// summary is a one-line human description of a decoded record.
func summary(r Result) string {
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

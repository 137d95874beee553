package bandit

import (
	"fmt"

	"qoadvisor/internal/walrec"
)

// Journal is the durable log the service writes its replayable state
// transitions to (qoadvisor/internal/wal satisfies it). Append buffers
// one record and returns its log sequence number; it must not retain
// payload — the service builds every rank record in one buffer it
// overwrites on the next rank, so an implementation that keeps records
// copies them. LastLSN reports the newest appended position. Durability
// (group-commit fsync) is the journal's concern — the service never
// waits on the disk.
type Journal interface {
	Append(payload []byte) (uint64, error)
	LastLSN() uint64
}

// Journal record types, aliased from the shared registry
// (qoadvisor/internal/walrec — the one authoritative tag assignment).
// The journal carries exactly the transitions replay needs to rebuild
// the model bit-identically:
//
//   - RecRank: one logged rank decision in resolved form (event ID,
//     propensity, context feature IDs, chosen action's feature IDs) —
//     everything a later reward needs to become a training example.
//     Written by Service.Rank under the event-log mutex, so journal
//     order equals event-log order.
//   - RecRewardBatch: the accepted slice of one reward batch, written
//     by the serve layer's ingestor before acknowledging the client.
//   - RecTrainMark: an out-of-band training flush (drain, shutdown,
//     checkpoint barrier). Periodic threshold training is NOT marked —
//     replay reproduces it by counting applied rewards exactly as the
//     ingestor's one drain goroutine does.
//
// Tags 4 (hint-table rollover) and 5 (quarantine) are owned by
// qoadvisor/internal/serve, which holds the hint and drift types;
// their records are dispatched by the serve layer's applier before the
// Replayer sees them.
const (
	RecRank        = walrec.TagRank
	RecRewardBatch = walrec.TagRewardBatch
	RecTrainMark   = walrec.TagTrainMark
)

// RewardEntry is one (event, reward) observation inside a journaled
// reward batch.
type RewardEntry = walrec.RewardEntry

// RankRecord is the decoded form of a RecRank payload.
type RankRecord = walrec.Rank

// ReplayStats counts what a replay pass consumed and rebuilt.
type ReplayStats struct {
	Records        int64
	Ranks          int64
	RewardBatches  int64
	Rewards        int64
	UnknownRewards int64
	TrainMarks     int64
	TrainRuns      int64
	TrainedEvents  int64
}

// Replayer rebuilds a Service's state from journal records. Feed it
// every record after the snapshot watermark via Apply, in order, then
// call Finish for the drain-equivalent tail flush.
//
// Replay is deterministic — the rebuilt model is bit-identical to the
// live one — because the serve layer's one drain goroutine makes apply
// order equal journal order, provided trainEvery is the value used
// when the records were written. The replayer must be the only user
// of the service while it runs, and the service must not have a
// journal attached (attach it after, or replay would re-journal).
type Replayer struct {
	svc        *Service
	trainEvery int
	applied    int
	Stats      ReplayStats
}

// NewReplayer wraps svc for replay. trainEvery must match the
// ingestor's training batch size from the journaled run (0 selects the
// shared default, 256).
func NewReplayer(svc *Service, trainEvery int) *Replayer {
	if trainEvery <= 0 {
		trainEvery = DefaultTrainEvery
	}
	return &Replayer{svc: svc, trainEvery: trainEvery}
}

// DefaultTrainEvery is the ingestion training batch size both the
// serve layer and journal replay default to — they must agree or
// replay would train on different boundaries than the live run.
const DefaultTrainEvery = 256

// Apply consumes one journal record.
func (r *Replayer) Apply(lsn uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("bandit: empty journal record at lsn %d", lsn)
	}
	r.Stats.Records++
	switch payload[0] {
	case RecRank:
		rec, err := walrec.DecodeRank(payload)
		if err != nil {
			return fmt.Errorf("bandit: lsn %d: %w", lsn, err)
		}
		r.svc.restoreEvent(&Event{
			EventID: rec.EventID,
			Context: Context{IDs: rec.CtxIDs},
			Actions: []Action{{IDs: rec.ActIDs}},
			Chosen:  0,
			Prob:    rec.Prob,
		})
		r.Stats.Ranks++
	case RecRewardBatch:
		entries, err := walrec.DecodeRewardBatch(payload)
		if err != nil {
			return fmt.Errorf("bandit: lsn %d: %w", lsn, err)
		}
		r.Stats.RewardBatches++
		for _, e := range entries {
			if err := r.svc.Reward(e.EventID, e.Value); err != nil {
				r.Stats.UnknownRewards++
				continue
			}
			r.Stats.Rewards++
			r.applied++
			if r.applied >= r.trainEvery {
				r.applied = 0
				r.train()
			}
		}
	case RecTrainMark:
		r.Stats.TrainMarks++
		r.applied = 0
		r.train()
	default:
		return &UnknownRecordError{LSN: lsn, Tag: payload[0]}
	}
	r.svc.SetWALWatermark(lsn)
	return nil
}

// UnknownRecordError reports a journal record whose tag this
// dispatcher does not handle. When the tag is registered in
// qoadvisor/internal/walrec it names the record type — the signature
// of a record reaching the wrong dispatcher (serve-owned tags must be
// consumed before the Replayer sees them). An unregistered tag is the
// signature of an old binary replaying a journal written by a newer
// one. It is typed, with the offending LSN and tag, so operators can
// diagnose the skew instead of guessing from a formatted string;
// callers detect it with errors.As and must treat it as fatal for the
// replay (skipping an unknown record would silently diverge the
// state).
type UnknownRecordError struct {
	// LSN is the journal position of the unrecognized record.
	LSN uint64
	// Tag is the record's type byte.
	Tag byte
}

// Error implements the error interface.
func (e *UnknownRecordError) Error() string {
	if name := walrec.Name(e.Tag); name != "" {
		return fmt.Sprintf("bandit: unhandled journal record type %d (%s) at lsn %d", e.Tag, name, e.LSN)
	}
	return fmt.Sprintf("bandit: unknown journal record type %d at lsn %d (journal written by a newer binary?)", e.Tag, e.LSN)
}

// Finish runs the drain-equivalent tail flush: rewards journaled after
// the last training boundary train now, exactly as a graceful shutdown
// would have trained them.
func (r *Replayer) Finish() {
	r.applied = 0
	r.train()
}

func (r *Replayer) train() {
	n := r.svc.Train()
	r.Stats.TrainRuns++
	r.Stats.TrainedEvents += int64(n)
}

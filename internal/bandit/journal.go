package bandit

import (
	"fmt"
	"sync/atomic"

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

// The journal carries, under qoadvisor/internal/walrec's tags, exactly
// the transitions replay needs to rebuild the model bit-identically:
//
//   - walrec.TagRank: one logged rank decision in resolved form (event
//     ID, propensity, context feature IDs, chosen action's feature IDs) —
//     everything a later reward needs to become a training example.
//     Written by Service.Rank under the event-log mutex, so journal
//     order equals event-log order.
//   - walrec.TagRewardBatch: the accepted slice of one reward batch,
//     written by the serve layer's ingestor before acknowledging the
//     client.
//   - walrec.TagTrainMark: an out-of-band training flush (drain,
//     shutdown, checkpoint barrier). Periodic threshold training is NOT
//     marked: the live run applies its rewards through a Replayer too,
//     so replay crosses the same boundaries by running the same code.
//
// Tags 4 (hint-table rollover) and 5 (quarantine) carry
// qoadvisor/internal/serve's hint and drift state; the serve layer's
// applier consumes them before the Replayer sees them.

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

// Replayer is where rewards cross training boundaries, live or
// replayed. Journal replay feeds it every record after the snapshot
// watermark via Apply, in order, then calls Finish for the
// drain-equivalent tail flush. A live run (the serve layer's ingestor)
// calls Reward for each reward it applies and Mark for each train mark
// it journals — the steps Apply runs for those records — so the live
// model and its replay train at the same points by construction.
//
// Replay is deterministic — the rebuilt model is bit-identical to the
// live one — because the serve layer's one drain goroutine makes apply
// order equal journal order, and because the training cadence is the
// constant DefaultTrainEvery: no process can replay a journal on
// boundaries other than the ones it was written on. One goroutine at a
// time steps a Replayer; Stats may be read from any. During Apply the
// replayer must be the only user of the service, and the service must
// not have a journal attached (attach it after, or replay would
// re-journal).
type Replayer struct {
	svc *Service
	// trainEvery is DefaultTrainEvery; only this package's tests set
	// another cadence, to cross boundaries with few rewards.
	trainEvery int
	applied    int // rewards applied since the last training pass

	records, ranks, rewardBatches, rewards, unknownRewards atomic.Int64
	trainMarks, trainRuns, trainedEvents                   atomic.Int64
}

// NewReplayer wraps svc for replay, or for a live run's training. It
// trains every DefaultTrainEvery applied rewards and at every train
// mark.
func NewReplayer(svc *Service) *Replayer {
	return &Replayer{svc: svc, trainEvery: DefaultTrainEvery}
}

// DefaultTrainEvery is the training cadence in applied rewards. It is a
// constant, not a setting: the live node, a restart, a follower and an
// offline as-of rebuild all train on its boundaries, so none of them
// can rebuild a different model from the same journal.
const DefaultTrainEvery = 256

// Stats reports the counters so far.
func (r *Replayer) Stats() ReplayStats {
	return ReplayStats{
		Records:        r.records.Load(),
		Ranks:          r.ranks.Load(),
		RewardBatches:  r.rewardBatches.Load(),
		Rewards:        r.rewards.Load(),
		UnknownRewards: r.unknownRewards.Load(),
		TrainMarks:     r.trainMarks.Load(),
		TrainRuns:      r.trainRuns.Load(),
		TrainedEvents:  r.trainedEvents.Load(),
	}
}

// Apply consumes one journal record.
func (r *Replayer) Apply(lsn uint64, payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("bandit: empty journal record at lsn %d", lsn)
	}
	r.records.Add(1)
	switch payload[0] {
	case walrec.TagRank:
		f, err := walrec.ScanRank(payload)
		if err != nil {
			return fmt.Errorf("bandit: lsn %d: %w", lsn, err)
		}
		r.svc.restoreRank(f)
		r.ranks.Add(1)
	case walrec.TagRewardBatch:
		f, err := walrec.ScanRewardBatch(payload)
		if err != nil {
			return fmt.Errorf("bandit: lsn %d: %w", lsn, err)
		}
		r.rewardBatches.Add(1)
		for id, v, ok := f.Next(); ok; id, v, ok = f.Next() {
			r.tally(r.svc.rewardID(id, v))
		}
	case walrec.TagTrainMark:
		r.Mark()
	default:
		return &UnknownRecordError{LSN: lsn, Tag: payload[0]}
	}
	r.svc.SetWALWatermark(lsn)
	return nil
}

// Reward applies one reward and, when it completes a batch of
// DefaultTrainEvery applied rewards, runs a training pass. A reward for
// an event the service does not know (never ranked, or evicted) is
// counted and moves no boundary.
func (r *Replayer) Reward(eventID string, value float64) {
	r.tally(r.svc.Reward(eventID, value) == nil)
}

// tally counts one applied reward, known or not, and trains when a
// known one completes a batch.
func (r *Replayer) tally(known bool) {
	if !known {
		r.unknownRewards.Add(1)
		return
	}
	r.rewards.Add(1)
	if r.applied++; r.applied >= r.trainEvery {
		r.Finish()
	}
}

// Mark is a train mark: it trains whatever was applied since the last
// boundary and starts a new batch.
func (r *Replayer) Mark() {
	r.trainMarks.Add(1)
	r.Finish()
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

// Finish runs the drain-equivalent tail flush: rewards applied after
// the last training boundary train now, exactly as a graceful shutdown
// would have trained them.
func (r *Replayer) Finish() {
	r.applied = 0
	n := r.svc.Train()
	r.trainRuns.Add(1)
	r.trainedEvents.Add(int64(n))
}

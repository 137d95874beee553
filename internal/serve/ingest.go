package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// reward is one queued reward observation. enq stamps the queue
// hand-off so the drain goroutine can report queue-wait latency; the
// zero enq marks a fence (see waitDrained) without widening the queue's
// 4,096 slots by a field.
type reward struct {
	eventID string
	value   float64
	enq     time.Time
}

// Ingestor is the asynchronous reward-ingestion pipeline: a bounded
// queue drained by one goroutine that applies rewards to the bandit
// service through a bandit.Replayer, which runs an IPS training pass
// every bandit.DefaultTrainEvery applied rewards — the same code that
// crosses those boundaries when the journal is replayed. Keeping reward
// application and SGD off the request path is what lets /v2/reward
// return in microseconds while the model still learns continuously.
//
// When a WAL is attached, every accepted batch is journaled before the
// caller is acknowledged (the durability barrier the journal's Commit
// mode defines), and journal order equals apply order — the invariant
// deterministic crash replay rests on — because the journal append and
// the queue hand-off happen atomically under seqMu and the single drain
// goroutine applies the queue in FIFO order.
type Ingestor struct {
	svc *bandit.Service
	// rp applies rewards and train marks and keeps the applied, unknown
	// and training counters. The drain goroutine steps it, and so does
	// trainFlush, whose callers hold seqMu with the queue drained.
	rp  *bandit.Replayer
	wal *wal.WAL // nil = in-memory only
	ch  chan reward

	// seqMu serializes every sender on ch: it makes journal-append +
	// channel-send atomic so WAL record order equals queue (and hence
	// apply) order, orders sends against Close closing the channel
	// (closed is guarded by it), and is held by the checkpoint barrier
	// to fence new intake.
	seqMu  sync.Mutex
	closed bool
	wg     sync.WaitGroup
	// fenced is where the drain goroutine answers a fence item; only a
	// seqMu holder waits on it, so there is at most one fence in flight.
	fenced chan struct{}

	enqueued    atomic.Int64
	dropped     atomic.Int64
	journalErrs atomic.Int64

	// stages receives the pipeline's latency observations (queue wait,
	// reward apply, WAL append, commit wait). Set before the drain
	// goroutine starts and never nil.
	stages *stageHists
}

// ingestQueueSize bounds the reward backlog; a full queue is the
// backpressure /v2/reward surfaces as rejected events.
const ingestQueueSize = 4096

// newIngestor starts an ingestion pipeline over the given bandit
// service. j, when non-nil, is the durable reward journal; stages is
// the owning server's stage-histogram sink, which the drain goroutine
// reads from its first iteration. There is exactly one drain goroutine:
// reward application serializes on the bandit's event-log mutex anyway,
// and one FIFO consumer is what makes apply order equal journal order
// for deterministic replay.
func newIngestor(svc *bandit.Service, j *wal.WAL, stages *stageHists) *Ingestor {
	in := &Ingestor{
		svc:    svc,
		rp:     bandit.NewReplayer(svc),
		wal:    j,
		ch:     make(chan reward, ingestQueueSize),
		stages: stages,
	}
	in.start()
	return in
}

// start launches the one drain goroutine.
func (in *Ingestor) start() {
	in.fenced = make(chan struct{})
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		for r := range in.ch {
			if r.enq.IsZero() {
				in.fenced <- struct{}{}
				continue
			}
			in.apply(r)
		}
	}()
}

func (in *Ingestor) apply(r reward) {
	// One clock read serves both stages: it ends the queue wait and
	// starts the apply measurement, which includes the training pass
	// the reward completes.
	applyStart := time.Now()
	in.stages.queueWait.Observe(applyStart.Sub(r.enq))
	in.rp.Reward(r.eventID, r.value)
	in.stages.rewardApply.ObserveSince(applyStart)
}

// EnqueueBatch submits a reward batch without blocking. A prefix of
// the batch sized to the queue's free capacity is accepted — journaled
// (when a WAL is attached) and queued, in that order, atomically with
// respect to other batches — and the remainder is dropped for the
// caller to reject with backpressure. The returned error reports a
// journal failure: when it is non-nil and accepted is 0 nothing was
// queued; a non-nil error with accepted > 0 means the rewards were
// queued but their durability could not be confirmed (fail-stop disk).
func (in *Ingestor) EnqueueBatch(entries []walrec.RewardEntry) (accepted int, err error) {
	return in.enqueueBatch(entries, nil)
}

// enqueueBatch is EnqueueBatch with the carrying request's trace: the
// journal append and the commit wait are recorded as trace stages (tr
// nil for embedded callers).
func (in *Ingestor) enqueueBatch(entries []walrec.RewardEntry, tr *obs.Trace) (accepted int, err error) {
	in.seqMu.Lock()
	if in.closed {
		in.seqMu.Unlock()
		in.dropped.Add(int64(len(entries)))
		return 0, nil
	}
	// The drain goroutine only receives, and seqMu serializes senders, so
	// this free-capacity read is a safe lower bound: the sends below
	// cannot block.
	free := cap(in.ch) - len(in.ch)
	n := len(entries)
	if n > free {
		n = free
	}
	var lsn uint64
	if n > 0 && in.wal != nil {
		appendStart := time.Now()
		lsn, err = in.wal.Append(walrec.EncodeRewardBatch(entries[:n]))
		appendDur := time.Since(appendStart)
		in.stages.rewardAppend.Observe(appendDur)
		tr.Stage(0, "reward_wal_append", appendStart, appendDur)
		if err != nil {
			in.seqMu.Unlock()
			in.journalErrs.Add(1)
			in.dropped.Add(int64(len(entries)))
			return 0, err
		}
	}
	enq := time.Now()
	for i := 0; i < n; i++ {
		in.ch <- reward{eventID: entries[i].EventID, value: entries[i].Value, enq: enq}
	}
	in.seqMu.Unlock()

	in.enqueued.Add(int64(n))
	in.dropped.Add(int64(len(entries) - n))
	if n > 0 && in.wal != nil {
		// The durability barrier: sync mode waits for the group fsync
		// covering this batch, async returns immediately, off never
		// syncs. Held outside seqMu so concurrent batches share fsyncs.
		commitStart := time.Now()
		cerr := in.wal.Commit(lsn)
		commitDur := time.Since(commitStart)
		in.stages.rewardCommit.Observe(commitDur)
		tr.Stage(0, "reward_commit_wait", commitStart, commitDur)
		if cerr != nil {
			in.journalErrs.Add(1)
			return n, cerr
		}
	}
	return n, nil
}

// waitDrained blocks until every accepted reward has been applied;
// callers hold seqMu, so nothing can enqueue behind it. It pushes one
// fence item through the queue and waits for the drain goroutine to
// answer it: FIFO order is the proof that everything sent before the
// fence was applied. After Close the channel is closed and the drain
// goroutine's exit is that proof instead.
func (in *Ingestor) waitDrained() {
	if in.closed {
		in.wg.Wait()
		return
	}
	in.ch <- reward{}
	<-in.fenced
}

// trainFlush journals a train mark and applies it, training whatever
// is pending below the batch threshold; replay applies the journaled
// mark the same way. Callers hold seqMu with the queue drained.
func (in *Ingestor) trainFlush() {
	if in.wal != nil {
		if _, err := in.wal.Append(walrec.EncodeTrainMark()); err != nil {
			in.journalErrs.Add(1)
		}
	}
	in.rp.Mark()
}

// Drain blocks until every accepted reward has been applied, then runs
// a final training pass over whatever remains below the batch
// threshold. It holds the intake fence (seqMu) across the wait and the
// flush so the journaled train mark cannot land after a reward batch
// that the flush did not train — the ordering deterministic replay
// depends on. It is a test/shutdown aid, not a hot-path call.
func (in *Ingestor) Drain() {
	in.seqMu.Lock()
	in.waitDrained()
	in.trainFlush()
	in.seqMu.Unlock()
}

// Quiesce fences the ingestion pipeline for a checkpoint barrier: new
// batches block at seqMu, and the call returns once every already
// accepted reward has been applied. The caller runs its critical
// section (train flush, snapshot encode) and then releases.
func (in *Ingestor) Quiesce() (release func()) {
	in.seqMu.Lock()
	in.waitDrained()
	return in.seqMu.Unlock
}

// Close stops accepting rewards, waits for the drain goroutine to
// apply the queue and exit, and applies a final training pass. It holds
// seqMu throughout, so the flush cannot overlap a checkpoint's.
func (in *Ingestor) Close() {
	in.seqMu.Lock()
	defer in.seqMu.Unlock()
	if in.closed {
		return
	}
	in.closed = true
	close(in.ch)
	in.wg.Wait()
	in.trainFlush()
}

// Stats returns a snapshot of the ingestion counters in wire form
// (api.IngestStats is the protocol type embedded in the stats payload).
func (in *Ingestor) Stats() api.IngestStats {
	rs := in.rp.Stats()
	return api.IngestStats{
		Enqueued:      in.enqueued.Load(),
		Dropped:       in.dropped.Load(),
		Applied:       rs.Rewards,
		UnknownEvents: rs.UnknownRewards,
		TrainRuns:     rs.TrainRuns,
		TrainedEvents: rs.TrainedEvents,
		QueueDepth:    len(in.ch),
		QueueCap:      cap(in.ch),
		JournalErrors: in.journalErrs.Load() + in.svc.JournalErrors(),
	}
}

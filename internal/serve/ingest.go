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
// hand-off so the drain goroutine can report queue-wait latency.
type reward struct {
	eventID string
	value   float64
	enq     time.Time
}

// Ingestor is the asynchronous reward-ingestion pipeline: a bounded
// queue drained by one goroutine that applies rewards to the bandit
// service and triggers an IPS training pass every trainEvery applied
// rewards. Keeping reward application and SGD off the request path is
// what lets /v2/reward return in microseconds while the model still
// learns continuously.
//
// When a WAL is attached, every accepted batch is journaled before the
// caller is acknowledged (the durability barrier the journal's Commit
// mode defines), and journal order equals apply order — the invariant
// deterministic crash replay rests on — because the journal append and
// the queue hand-off happen atomically under seqMu and the single drain
// goroutine applies the queue in FIFO order.
type Ingestor struct {
	svc        *bandit.Service
	wal        *wal.WAL // nil = in-memory only
	ch         chan reward
	trainEvery int64

	// closeMu serializes Enqueue sends against Close closing the channel.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	// seqMu makes journal-append + channel-send atomic so WAL record
	// order equals queue (and hence apply) order. The checkpoint
	// barrier holds it to fence new intake.
	seqMu sync.Mutex

	// queued counts accepted-but-not-yet-applied rewards; drainMu/
	// drainCond let Drain sleep until it reaches zero instead of
	// busy-polling.
	queued    atomic.Int64
	drainMu   sync.Mutex
	drainCond *sync.Cond
	pending   atomic.Int64 // applied since the last training pass

	enqueued      atomic.Int64
	dropped       atomic.Int64
	applied       atomic.Int64
	unknown       atomic.Int64
	trainRuns     atomic.Int64
	trainedEvents atomic.Int64
	journalErrs   atomic.Int64

	// stages receives the pipeline's latency observations (queue wait,
	// reward apply, WAL append, commit wait). Set before the drain
	// goroutine starts and never nil.
	stages *stageHists
}

// NewIngestor starts an ingestion pipeline over the given bandit
// service. j, when non-nil, is the durable reward journal. queueSize
// bounds the reward backlog (default 4096); trainEvery is the training
// batch size in applied rewards (default bandit.DefaultTrainEvery).
// There is exactly one drain goroutine: reward application serializes
// on the bandit's event-log mutex anyway, and one FIFO consumer is what
// makes apply order equal journal order for deterministic replay.
func NewIngestor(svc *bandit.Service, j *wal.WAL, queueSize, trainEvery int) *Ingestor {
	return newIngestor(svc, j, queueSize, trainEvery, &stageHists{})
}

// newIngestor is NewIngestor with the stage-histogram sink supplied by
// the owning server. Standalone ingestors get private histograms from
// the exported constructor; the distinction matters because the drain
// goroutine reads stages from its first iteration, so it cannot be
// assigned after construction.
func newIngestor(svc *bandit.Service, j *wal.WAL, queueSize, trainEvery int, stages *stageHists) *Ingestor {
	if queueSize <= 0 {
		queueSize = 4096
	}
	if trainEvery <= 0 {
		trainEvery = bandit.DefaultTrainEvery
	}
	in := &Ingestor{
		svc:        svc,
		wal:        j,
		ch:         make(chan reward, queueSize),
		trainEvery: int64(trainEvery),
		stages:     stages,
	}
	in.start()
	return in
}

// start launches the one drain goroutine.
func (in *Ingestor) start() {
	in.drainCond = sync.NewCond(&in.drainMu)
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		for r := range in.ch {
			in.apply(r)
		}
	}()
}

func (in *Ingestor) apply(r reward) {
	// One clock read serves both stages: it ends the queue wait and
	// starts the apply measurement.
	applyStart := time.Now()
	in.stages.queueWait.Observe(applyStart.Sub(r.enq))
	err := in.svc.Reward(r.eventID, r.value)
	in.stages.rewardApply.ObserveSince(applyStart)
	if err != nil {
		in.unknown.Add(1)
	} else {
		in.applied.Add(1)
		if in.pending.Add(1) >= in.trainEvery {
			in.pending.Store(0)
			in.train()
		}
	}
	if in.queued.Add(-1) == 0 {
		// Pair the broadcast with the drain lock so a Drain caller
		// between its counter check and cond.Wait cannot miss the wake.
		in.drainMu.Lock()
		in.drainMu.Unlock()
		in.drainCond.Broadcast()
	}
}

func (in *Ingestor) train() {
	n := in.svc.Train()
	in.trainRuns.Add(1)
	in.trainedEvents.Add(int64(n))
}

// Enqueue submits one reward without blocking — the single-event
// adapter over EnqueueBatch. It returns false when the queue is full
// or the ingestor is closed (backpressure the HTTP layer surfaces as
// 503 so callers can retry), or when the journal rejected the write.
func (in *Ingestor) Enqueue(eventID string, value float64) bool {
	n, err := in.EnqueueBatch([]bandit.RewardEntry{{EventID: eventID, Value: value}})
	return n == 1 && err == nil
}

// EnqueueBatch submits a reward batch without blocking. A prefix of
// the batch sized to the queue's free capacity is accepted — journaled
// (when a WAL is attached) and queued, in that order, atomically with
// respect to other batches — and the remainder is dropped for the
// caller to reject with backpressure. The returned error reports a
// journal failure: when it is non-nil and accepted is 0 nothing was
// queued; a non-nil error with accepted > 0 means the rewards were
// queued but their durability could not be confirmed (fail-stop disk).
func (in *Ingestor) EnqueueBatch(entries []bandit.RewardEntry) (accepted int, err error) {
	return in.enqueueBatch(entries, nil)
}

// enqueueBatch is EnqueueBatch with the carrying request's trace: the
// journal append and the commit wait are recorded as trace stages (tr
// nil for embedded callers).
func (in *Ingestor) enqueueBatch(entries []bandit.RewardEntry, tr *obs.Trace) (accepted int, err error) {
	in.closeMu.RLock()
	defer in.closeMu.RUnlock()
	if in.closed {
		in.dropped.Add(int64(len(entries)))
		return 0, nil
	}

	in.seqMu.Lock()
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
	// Count before handing off: the drain goroutine can pick an item up
	// and apply it before this goroutine resumes, and Drain must never observe
	// queued==0 while an accepted reward is still in flight.
	in.queued.Add(int64(n))
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

// waitDrained blocks until every accepted reward has been applied.
func (in *Ingestor) waitDrained() {
	in.drainMu.Lock()
	for in.queued.Load() > 0 {
		in.drainCond.Wait()
	}
	in.drainMu.Unlock()
}

// trainFlush journals a train mark (so replay reproduces this
// boundary) and runs a training pass over whatever is pending below
// the batch threshold.
func (in *Ingestor) trainFlush() {
	if in.wal != nil {
		if _, err := in.wal.Append(walrec.EncodeTrainMark()); err != nil {
			in.journalErrs.Add(1)
		}
	}
	in.pending.Store(0)
	in.train()
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

// Close stops accepting rewards, drains the queue, applies a final
// training pass, and waits for the drain goroutine to exit.
func (in *Ingestor) Close() {
	in.closeMu.Lock()
	if in.closed {
		in.closeMu.Unlock()
		return
	}
	in.closed = true
	close(in.ch)
	in.closeMu.Unlock()
	in.wg.Wait()
	in.queued.Store(0)
	in.drainCond.Broadcast()
	in.trainFlush()
}

// Stats returns a snapshot of the ingestion counters in wire form
// (api.IngestStats is the protocol type embedded in the stats payload).
func (in *Ingestor) Stats() api.IngestStats {
	return api.IngestStats{
		Enqueued:      in.enqueued.Load(),
		Dropped:       in.dropped.Load(),
		Applied:       in.applied.Load(),
		UnknownEvents: in.unknown.Load(),
		TrainRuns:     in.trainRuns.Load(),
		TrainedEvents: in.trainedEvents.Load(),
		QueueDepth:    len(in.ch),
		QueueCap:      cap(in.ch),
		JournalErrors: in.journalErrs.Load() + in.svc.JournalErrors(),
	}
}

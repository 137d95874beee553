package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"qoadvisor/internal/api"
)

// target is the slice of the typed client an op drives; *client.Client
// and *client.Cluster both satisfy it.
type target interface {
	RankBatch(ctx context.Context, jobs []api.RankRequest) (api.BatchRankResponse, error)
	RewardBatch(ctx context.Context, events []api.RewardEvent) (api.BatchRewardResponse, error)
}

// segments is how many equal-op slices a body is cut into. Each
// end-to-end timing is the median over the slices, so a neighbour's
// burst on this shared host has to cover half the body to move it.
const segments = 15

// pendingReward is a bandit decision whose telemetry is sent later.
type pendingReward struct {
	eventID string
	job     int // index into the stream's job arrays
}

// trigger runs fn on its own goroutine when the op with global index op
// is about to be issued — checkpoints and rollovers fire at fixed op
// indices, never on timers, but run beside the traffic as they would
// in production.
type trigger struct {
	op int
	fn func()
}

// bodyPlan is one measured (or warm-up) pass over ops [lo, hi) of the
// workload's stream.
type bodyPlan struct {
	lo, hi   int
	delay    int // ops a worker holds a bandit decision's reward back (0 = same op)
	triggers []trigger
	sample   func() // called by worker 0 every sampleEvery of its ops (nil = off)
	tr       *tracer
}

const sampleEvery = 500

// worker is one closed-loop client: one connection, one op in flight.
// Every buffer it records into is allocated in newWorker, i.e. during
// set-up, so recording adds nothing to the body's allocation count.
type worker struct {
	id     int
	tgt    target
	jobs   []api.RankRequest
	events []api.RewardEvent
	vals   []float64
	hashes []api.TemplateHash
	ring   [][]pendingReward

	rankNs []int64 // per local op
	ackNs  []int64 // per local op; 0 when the op sent no reward batch
	endNs  []int64 // op completion, ns since body start
	okJobs []uint8 // jobs of the op that count toward goodput

	n            int // local ops recorded
	failed       int
	jobsRanked   int64
	rewardsAcked int64
	hintJobs     int64
	queued       int64
	observed     int64
}

func newWorker(id int, tgt target, maxOps, delay int) *worker {
	w := &worker{
		id:     id,
		tgt:    tgt,
		jobs:   make([]api.RankRequest, batchSize),
		events: make([]api.RewardEvent, 0, 2*batchSize),
		vals:   make([]float64, 2*batchSize),
		hashes: make([]api.TemplateHash, 2*batchSize),
		rankNs: make([]int64, maxOps),
		ackNs:  make([]int64, maxOps),
		endNs:  make([]int64, maxOps),
		okJobs: make([]uint8, maxOps),
	}
	if delay > 0 {
		w.ring = make([][]pendingReward, delay)
		for i := range w.ring {
			w.ring[i] = make([]pendingReward, 0, batchSize)
		}
	}
	return w
}

func (w *worker) reset() {
	w.n, w.failed = 0, 0
	w.jobsRanked, w.rewardsAcked, w.hintJobs, w.queued, w.observed = 0, 0, 0, 0, 0
	for i := range w.ring {
		w.ring[i] = w.ring[i][:0]
	}
}

// addEvent appends one reward event backed by the worker's own value
// and hash arrays (RewardEvent carries pointers).
func (w *worker) addEvent(eventID string, hash api.TemplateHash, v float64) {
	k := len(w.events)
	w.vals[k], w.hashes[k] = v, hash
	w.events = append(w.events, api.RewardEvent{EventID: eventID, Reward: &w.vals[k], TemplateHash: &w.hashes[k]})
}

// addPending turns held-back decisions into reward events and empties
// the slot that held them.
func (w *worker) addPending(wl *world, slot *[]pendingReward) {
	for _, pr := range *slot {
		w.addEvent(pr.eventID, wl.pop[wl.stream.tmplIdx[pr.job]].hash, wl.stream.reward(wl.pop, pr.job))
	}
	*slot = (*slot)[:0]
}

// doOp issues global op g: rank a batch, then report rewards. Every job
// yields exactly one reward event: hint-served and follower-served jobs
// a template-only event in the same op, bandit decisions an
// eventId+template event — in the same op, or delay ops later. An op
// fails on a transport error, a per-job error, or any reward rejection.
func (w *worker) doOp(ctx context.Context, wl *world, g int, p *bodyPlan, epoch time.Time) {
	s, pop := wl.stream, wl.pop
	s.fillBatch(pop, g, w.jobs)
	local := w.n
	w.n++

	t0 := time.Now()
	resp, err := w.tgt.RankBatch(ctx, w.jobs)
	t1 := time.Now()
	w.rankNs[local], w.ackNs[local] = int64(t1.Sub(t0)), 0
	ok := err == nil && len(resp.Results) == batchSize

	w.events = w.events[:0]
	var slot *[]pendingReward
	if p.delay > 0 {
		slot = &w.ring[local%p.delay]
		w.addPending(wl, slot)
	}
	ranked := 0
	if ok {
		for j := range resp.Results {
			res := &resp.Results[j]
			if res.Error != nil {
				ok = false
				continue
			}
			ranked++
			if res.Source == api.SourceHint {
				w.hintJobs++
			}
			if k := g*batchSize + j; res.EventID != "" && slot != nil {
				*slot = append(*slot, pendingReward{eventID: res.EventID, job: k})
			} else {
				w.addEvent(res.EventID, w.jobs[j].TemplateHash, s.reward(pop, k))
			}
		}
	}
	w.jobsRanked += int64(ranked)

	t2 := t1
	if len(w.events) > 0 {
		ok = w.sendRewards(ctx, local) && ok
		t2 = time.Now()
	}
	if ok {
		w.okJobs[local] = uint8(ranked)
	} else {
		w.okJobs[local] = 0
		w.failed++
	}
	w.endNs[local] = int64(t2.Sub(epoch))
	if p.tr != nil {
		op := p.tr.add(w.id, spanOp, g, 0, t0, t2)
		p.tr.add(w.id, spanClientRank, g, op, t0, t1)
		if len(w.events) > 0 {
			p.tr.add(w.id, spanClientReward, g, op, t2.Add(-time.Duration(w.ackNs[local])), t2)
		}
	}
}

// sendRewards posts w.events and reports whether every event was
// accepted (queued or observed, none rejected).
func (w *worker) sendRewards(ctx context.Context, local int) bool {
	t := time.Now()
	rr, err := w.tgt.RewardBatch(ctx, w.events)
	w.ackNs[local] = int64(time.Since(t))
	if err != nil {
		return false
	}
	w.queued += int64(rr.Queued)
	w.observed += int64(rr.Observed)
	if len(rr.Rejected) > 0 {
		return false
	}
	w.rewardsAcked += int64(len(w.events))
	return true
}

// flush sends the rewards still held back when the stream ends, as
// reward-only ops inside the body.
func (w *worker) flush(ctx context.Context, wl *world, epoch time.Time) {
	for i := range w.ring {
		if len(w.ring[i]) == 0 {
			continue
		}
		w.events = w.events[:0]
		w.addPending(wl, &w.ring[i])
		local := w.n
		w.n++
		w.rankNs[local] = 0
		w.okJobs[local] = 0
		if !w.sendRewards(ctx, local) {
			w.failed++
		}
		w.endNs[local] = int64(time.Since(epoch))
	}
}

// bodyResult is what one pass measured, as the clock read it.
type bodyResult struct {
	wall         time.Duration
	cpu          time.Duration // process user+sys CPU over the body
	mallocs      float64       // process mallocs over the body
	attempted    int
	failed       int
	jobsOK       int64 // jobs ranked without error and with their op's rewards acked
	jobsRanked   int64
	rewardsAcked int64
	hintJobs     int64
	queued       int64
	observed     int64

	// Medians over the body's segments.
	goodput float64 // jobs/s
	rankP50 float64 // ms
	rankP90 float64
	ackP50  float64
	ackP90  float64

	refBefore, refAfter float64 // hostRef around the body, ms (set by world.pass)
	rank, ack           []int64 // all samples, sorted
}

// unstable reports whether the host reference loop read more than a
// tenth apart before and after the body.
func (r *bodyResult) unstable() bool { return hostRefDrift(r.refBefore, r.refAfter) > 1.10 }

// runBody drives plan over the world's workers and measures it. The
// process-wide counters (CPU, mallocs) bracket the closed loop only.
func runBody(ctx context.Context, wl *world, p *bodyPlan) bodyResult {
	clients := len(wl.workers)
	for _, w := range wl.workers {
		w.reset()
	}
	var res bodyResult
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	epoch := time.Now()

	var wg, side sync.WaitGroup
	for _, w := range wl.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			first := p.lo + ((w.id-p.lo)%clients+clients)%clients
			for g := first; g < p.hi; g += clients {
				for _, tg := range p.triggers {
					if tg.op == g {
						side.Add(1)
						go func() { defer side.Done(); tg.fn() }()
					}
				}
				if p.sample != nil && w.id == 0 && w.n%sampleEvery == 0 {
					p.sample()
				}
				w.doOp(ctx, wl, g, p, epoch)
			}
			w.flush(ctx, wl, epoch)
		}(w)
	}
	wg.Wait()
	side.Wait()
	res.wall = time.Since(epoch)
	res.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	res.mallocs = float64(ms1.Mallocs - ms0.Mallocs)

	for _, w := range wl.workers {
		res.attempted += w.n
		res.failed += w.failed
		res.jobsRanked += w.jobsRanked
		res.rewardsAcked += w.rewardsAcked
		res.hintJobs += w.hintJobs
		res.queued += w.queued
		res.observed += w.observed
		for i := 0; i < w.n; i++ {
			res.jobsOK += int64(w.okJobs[i])
		}
	}
	res.summarize(wl.workers)
	return res
}

// summarize computes the per-segment figures and their medians. Segment
// k of a worker is the k-th fifteenth of its ops. A segment's goodput is
// the sum over workers of (jobs acked ÷ the worker's wall time for that
// slice); its percentiles are taken over both workers' ops in the slice.
func (r *bodyResult) summarize(ws []*worker) {
	var good, r50, r90, a50, a90 []float64
	for k := 0; k < segments; k++ {
		var rate float64
		var rank, ack []int64
		for _, w := range ws {
			lo, hi := k*w.n/segments, (k+1)*w.n/segments
			if hi <= lo {
				continue
			}
			var start int64
			if lo > 0 {
				start = w.endNs[lo-1]
			}
			var jobs int64
			for i := lo; i < hi; i++ {
				jobs += int64(w.okJobs[i])
				if w.rankNs[i] > 0 {
					rank = append(rank, w.rankNs[i])
				}
				if w.ackNs[i] > 0 {
					ack = append(ack, w.ackNs[i])
				}
			}
			if d := w.endNs[hi-1] - start; d > 0 {
				rate += float64(jobs) / (float64(d) / 1e9)
			}
		}
		sortInt64(rank)
		sortInt64(ack)
		if rate > 0 {
			good = append(good, rate)
		}
		if len(rank) > 0 {
			r50 = append(r50, quantile(rank, 0.50))
			r90 = append(r90, quantile(rank, 0.90))
		}
		if len(ack) > 0 {
			a50 = append(a50, quantile(ack, 0.50))
			a90 = append(a90, quantile(ack, 0.90))
		}
		r.rank = append(r.rank, rank...)
		r.ack = append(r.ack, ack...)
	}
	sortInt64(r.rank)
	sortInt64(r.ack)
	r.goodput = median(good)
	r.rankP50 = median(r50) / 1e6
	r.rankP90 = median(r90) / 1e6
	r.ackP50 = median(a50) / 1e6
	r.ackP90 = median(a90) / 1e6
}

func sortInt64(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// rankOf is the 1-based nearest-rank position of the q-quantile among n
// samples (the epsilon keeps 0.99×1000 from rounding up to 991).
func rankOf(n int, q float64) int {
	return max(int(math.Ceil(q*float64(n)-1e-9)), 1)
}

// quantile reads the q-quantile of sorted samples (nearest rank), in
// the samples' own unit.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rankOf(len(sorted), q)-1])
}

// tailQuantile is quantile under the reporting rule for tails: a
// percentile is stated only when at least ten samples lie beyond it;
// otherwise ok is false and the metric reads 0.
func tailQuantile(sorted []int64, q float64) (v float64, ok bool) {
	if len(sorted)-rankOf(len(sorted), q) < 10 {
		return 0, false
	}
	return quantile(sorted, q), true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// processCPU is user+system CPU of the whole process. The load
// generator lives in this process, so its cost is included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

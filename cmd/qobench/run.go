package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qoadvisor/internal/api"
)

// options is one invocation's settings.
type options struct {
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	traceOut string // Chrome-trace path for a traced run ("" = default under the scratch root)
}

// result is one workload's run.
type result struct {
	workload  string
	seed      int64
	traced    bool
	attempted int
	failed    int
	unstable  bool     // the host reference loop read more than 10% apart before and after a body
	metrics   metrics  // what the last output line carries: the gated set, or the per-layer set in a traced run
	timings   metrics  // untraced run: the six clock-based figures at full length, printed but not gated
	notes     []string // fingerprints and other non-metric output
	fails     []string // failed output checks
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// scratchDir is where journals, snapshots and trace files go: inside
// the current directory, never the system temp dir.
var scratchDir = ".qobench"

func scratchRoot() string {
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return "."
	}
	return scratchDir
}

// runServing runs one of the three serving workloads.
func runServing(ctx context.Context, sp *spec, o options) (*result, error) {
	sz := sizesFor(sp, o.seconds, o.traced, o.smoke)
	t := time.Now()
	wl, err := setUp(ctx, sp, o.seed, sz)
	if err != nil {
		return nil, err
	}
	defer wl.tearDown()
	return measureServing(ctx, wl, sz, o, time.Since(t).Seconds())
}

// measureServing drives the measured passes at a set-up world, runs
// the output checks, and assembles the metrics: the end-to-end set from
// an untraced run, the per-layer set from a traced one.
func measureServing(ctx context.Context, wl *world, sz sizes, o options, setupS float64) (*result, error) {
	res := &result{workload: wl.spec.name, seed: o.seed, traced: o.traced}
	chk := &checker{}
	res.notef("op_stream_sha256 %s", wl.hash)

	if !o.traced {
		w, err := wl.pass(ctx, chk, res, sz, 0, nil)
		if err != nil {
			return nil, err
		}
		heap := heapLive()
		wl.finalChecks(ctx, chk, res)
		res.metrics = endToEnd(setupS, &w.body, heap)
		res.timings = w.body.timings()
		res.fails = chk.fails
		return res, nil
	}

	// Traced run: the same body at a tenth of the ops, untraced and then
	// traced (pass A, the client pass), then pass B, the ladder.
	tr := newTracer(clients, 3*(sz.body/clients+wl.spec.delay+2)+16*ladderOps)
	u, err := wl.pass(ctx, chk, res, sz, 0, nil)
	if err != nil {
		return nil, err
	}
	t, err := wl.pass(ctx, chk, res, sz, 1, tr)
	if err != nil {
		return nil, err
	}
	rec, catchup := wl.finalChecks(ctx, chk, res)
	recBytes := 0
	if w0, w1 := t.p0.WAL, t.p1.WAL; w0 != nil && w1 != nil && w1.Appends > w0.Appends {
		recBytes = int((w1.AppendedBytes - w0.AppendedBytes) / (w1.Appends - w0.Appends))
	}
	lo := sz.warm + sz.body
	lr, err := ladder(wl, tr, lo, lo+sz.body, recBytes)
	if err != nil {
		return nil, err
	}

	out := o.traceOut
	if out == "" {
		out = filepath.Join(scratchRoot(), "trace-"+wl.spec.name+".json")
	}
	if err := tr.writeChrome(out, wl.spec.name); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	res.notef("trace %s (%d spans)", out, tr.count())

	v := layerValues{}
	wl.servingLayers(v, &u.body, &t, tr, &lr, rec, catchup)
	res.metrics = perLayer(v)
	res.fails = chk.fails
	return res, nil
}

// window is one measured pass with the /v2/stats scrapes around it
// (primary p, follower f; the follower's are zero without one).
type window struct {
	body           bodyResult
	p0, f0, p1, f1 api.StatsResponse
	drain          time.Duration
}

// pass runs measured pass k: scrape, body, drain ingestion, scrape,
// reconcile the servers' counters with what was sent.
func (wl *world) pass(ctx context.Context, chk *checker, res *result, sz sizes, k int, tr *tracer) (w window, err error) {
	if w.p0, w.f0, err = wl.scrape(ctx); err != nil {
		return w, err
	}
	lo := sz.warm + k*sz.body
	before := hostRef(sz.refIters)
	w.body = runBody(ctx, wl, wl.plan(lo, lo+sz.body, tr))
	w.body.refBefore, w.body.refAfter = before, hostRef(sz.refIters)
	t := time.Now()
	wl.primary.Ingestor().Drain()
	w.drain = time.Since(t)
	if w.p1, w.f1, err = wl.scrape(ctx); err != nil {
		return w, err
	}
	wl.reconcile(chk, &w)
	b := &w.body
	res.notef("pass %d: %d ops in %.3fs, %d jobs ranked, %.0f jobs/s over the whole body; host reference loop %.3f ms before, %.3f ms after",
		k, b.attempted, b.wall.Seconds(), b.jobsRanked, float64(b.jobsOK)/b.wall.Seconds(), b.refBefore, b.refAfter)
	res.attempted += b.attempted
	res.failed += b.failed
	res.unstable = res.unstable || b.unstable()
	return w, nil
}

// rankRequests and hintHits are the cluster-wide counter deltas of the
// window.
func (w *window) rankRequests() int64 {
	return w.p1.RankRequests - w.p0.RankRequests + w.f1.RankRequests - w.f0.RankRequests
}

func (w *window) hintHits() int64 {
	return w.p1.HintHits - w.p0.HintHits + w.f1.HintHits - w.f0.HintHits
}

// finalChecks runs the durability checks that need the body finished:
// crash recovery on WAL workloads, follower convergence on the cluster.
func (wl *world) finalChecks(ctx context.Context, chk *checker, res *result) (recovery, time.Duration) {
	var rec recovery
	var catchup time.Duration
	if wl.journal != nil {
		rec = wl.checkRecovery(chk)
		res.notef("model_sha256 %s (recovered from %s + %d journal records in %.3fs)",
			rec.sha, filepath.Base(wl.lastCkpt), rec.records, rec.dur.Seconds())
	}
	if wl.follower != nil {
		catchup = wl.checkFollower(ctx, chk)
	}
	return rec, catchup
}

// endToEnd assembles the gated metrics of a serving body.
func endToEnd(setupS float64, b *bodyResult, heapMB float64) metrics {
	var m metrics
	m.add("setup_s", "s", setupS)
	m.add("allocs_per_job", "count", b.mallocs/float64(b.jobsOK))
	m.add("heap_live_mb", "MB", heapMB)
	return m
}

// timings are the clock-based figures of a body, in timingsDecl order:
// segment medians, and process CPU per 1,000 jobs.
func (b *bodyResult) timings() metrics {
	var m metrics
	for i, v := range []float64{b.goodput, b.rankP50, b.rankP90, b.ackP50, b.ackP90, ms(b.cpu) / float64(b.jobsOK) * 1e3} {
		m.add(timingsDecl[i].name, timingsDecl[i].unit, v)
	}
	return m
}

// layerValues maps per-layer metric names to values; perLayer emits
// them in declaration order, 0 for the ones a workload does not touch.
type layerValues map[string]float64

func perLayer(v layerValues) metrics {
	var m metrics
	for _, d := range perLayerDecl {
		m.add(d.name, d.unit, v[d.name])
	}
	return m
}

// servingLayers fills the per-layer values a serving world can measure:
// u is the untraced pass, w the traced pass with its /v2/stats window.
func (wl *world) servingLayers(v layerValues, u *bodyResult, w *window,
	tr *tracer, lr *ladderResult, rec recovery, catchup time.Duration) {
	t, p0, p1 := &w.body, w.p0, w.p1
	jobs := float64(t.jobsRanked)

	v["load.ops_attempted"] = float64(t.attempted)
	v["load.ops_failed"] = float64(t.failed)
	v["load.jobs_ranked"] = float64(t.jobsRanked)
	v["load.rewards_acked"] = float64(t.rewardsAcked)
	for _, m := range u.timings() {
		v[m.name] = m.value
	}
	if q, ok := tailQuantile(t.rank, 0.99); ok {
		v["load.rank_p99_ms"] = q / 1e6
	}
	if q, ok := tailQuantile(t.rank, 0.999); ok {
		v["load.rank_p999_ms"] = q / 1e6
	}
	if q, ok := tailQuantile(t.ack, 0.99); ok {
		v["load.reward_ack_p99_ms"] = q / 1e6
	}
	ops := float64(wl.stream.ops())
	v["load.gen_us_per_op"] = float64(wl.genDur.Microseconds()) / ops
	v["load.gen_allocs_per_op"] = float64(wl.genAllocs) / ops
	v["load.host_ref_ms"] = (t.refBefore + t.refAfter) / 2
	v["load.host_ref_drift"] = hostRefDrift(t.refBefore, t.refAfter)
	if u.goodput > 0 {
		v["load.trace_overhead_share"] = 1 - t.goodput/u.goodput
	}

	v["api.rank_req_encode_us"] = lr.reqEnc.perCall(1e3)
	v["api.rank_req_decode_us"] = lr.reqDec.perCall(1e3)
	v["api.rank_resp_encode_us"] = lr.respEnc.perCall(1e3)
	v["api.rank_resp_decode_us"] = lr.respDec.perCall(1e3)
	v["api.reward_req_decode_us"] = lr.rwdDec.perCall(1e3)
	if lr.jobs > 0 {
		v["api.rank_wire_bytes_per_job"] = float64(lr.wireBytes) / float64(lr.jobs)
		v["api.codec_allocs_per_job"] = float64(lr.codecAllocs) / float64(lr.jobs)
	}

	v["client.rank_rtt_us"] = tr.meanUs(spanClientRank)
	v["serve.http_rank_us"] = lr.httpRank.perCall(1e3)
	v["serve.http_reward_us"] = lr.httpReward.perCall(1e3)
	v["serve.rank_us_per_job"] = lr.rank.perCall(1e3)
	v["client.self_us"] = v["client.rank_rtt_us"] - v["serve.http_rank_us"]
	v["serve.http_self_us"] = v["serve.http_rank_us"] - batchSize*v["serve.rank_us_per_job"]
	v["serve.cache_lookup_ns"] = lr.lookup.perCall(1)
	if d := w.rankRequests(); d > 0 {
		v["serve.hint_hit_ratio"] = float64(w.hintHits()) / float64(d)
	}
	v["serve.install_hints_ms"] = ms(wl.installHints)
	if wl.rolloverDur > 0 {
		v["serve.install_hints_ms"] = ms(wl.rolloverDur)
	}
	if n := len(wl.ckptDur); n > 0 {
		var d time.Duration
		for _, x := range wl.ckptDur {
			d += x
		}
		v["serve.checkpoint_ms"] = ms(d) / float64(n)
		v["serve.checkpoint_bytes"] = float64(wl.ckptBytes[n-1])
	}
	v["serve.recover_s"] = rec.dur.Seconds()
	if rec.dur > 0 {
		v["serve.recover_records_per_s"] = float64(rec.records) / rec.dur.Seconds()
	}
	v["serve.ingest_drain_ms"] = ms(w.drain)
	v["serve.ingest_rejected"] = float64(p1.Ingest.Dropped - p0.Ingest.Dropped)
	for _, st := range []string{"rank_hint_lookup", "rank_bandit", "reward_wal_append", "reward_commit_wait",
		"reward_queue_wait", "reward_apply", "wal_fsync", "checkpoint"} {
		v["serve.stage."+st+"_mean_us"] = stageMean(p0, p1, st)
	}
	v["serve.unattributed_share"] = unattributedShare(p0, p1)

	v["core.featurize_ns_per_job"] = lr.featurize.perCall(1)
	v["bandit.rank_ns"] = lr.banditRank.perCall(1)
	v["bandit.rank_greedy_ns"] = lr.greedy.perCall(1)
	v["bandit.train_us_per_event"] = lr.train.perCall(1e3)
	if b, err := modelBytes(wl.primary); err == nil {
		v["bandit.snapshot_bytes"] = float64(len(b))
	}

	v["wal.append_commit_us"] = lr.walAppend.perCall(1e3)
	if p0.WAL != nil && p1.WAL != nil && jobs > 0 {
		v["wal.bytes_per_job"] = float64(p1.WAL.AppendedBytes-p0.WAL.AppendedBytes) / jobs
		v["wal.appends_per_job"] = float64(p1.WAL.Appends-p0.WAL.Appends) / jobs
		v["wal.syncs_per_kjob"] = float64(p1.WAL.Syncs-p0.WAL.Syncs) / jobs * 1e3
	}

	if wl.follower != nil {
		v["replicate.bootstrap_ms"] = ms(wl.bootstrap)
		v["replicate.catchup_ms"] = ms(catchup)
		if lag := append([]int64(nil), wl.lag...); len(lag) > 0 {
			sortInt64(lag)
			v["replicate.lag_records_p50"] = quantile(lag, 0.5)
			v["replicate.lag_records_max"] = float64(lag[len(lag)-1])
		}
		if d := w.rankRequests(); d > 0 {
			v["replicate.follower_read_share"] = float64(w.f1.RankRequests-w.f0.RankRequests) / float64(d)
		}
	}

	v["drift.observe_ns"] = lr.observe.perCall(1)
	if p0.Drift != nil && p1.Drift != nil {
		v["drift.transitions"] = float64(p1.Drift.Transitions)
		if jobs > 0 {
			// Each eviction scans the detector's whole table under its
			// one mutex; the ladder's few hundred ops never fill the
			// table, so observe_ns alone does not show this cost.
			v["drift.evictions_per_kjob"] = float64(p1.Drift.Evictions-p0.Drift.Evictions) / jobs * 1e3
		}
	}
}

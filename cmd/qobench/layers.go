package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
)

// ladderOps caps how many ops of the stream the ladder replays; each
// one is pushed through every rung, so a few hundred give every rung
// thousands of calls.
const ladderOps = 600

// memWriter is an in-memory http.ResponseWriter, so ServeHTTP can be
// timed without a socket.
type memWriter struct {
	hdr  http.Header
	buf  bytes.Buffer
	code int
}

func (m *memWriter) Header() http.Header         { return m.hdr }
func (m *memWriter) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memWriter) WriteHeader(code int)        { m.code = code }
func (m *memWriter) reset() {
	m.buf.Reset()
	m.code = http.StatusOK
	clear(m.hdr)
}

// acc is a running sum of timed calls.
type acc struct {
	ns int64
	n  int64
}

func (a *acc) add(d time.Duration, calls int) { a.ns += int64(d); a.n += int64(calls) }
func (a acc) perCall(unitNs float64) float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n) / unitNs
}

// ladderResult holds the rung timings the spans do not carry one by one.
type ladderResult struct {
	httpRank, httpReward, rank               acc // per batch, per batch, per job
	featurize, banditRank, greedy, lookup    acc // per job
	observe, train                           acc // per reward event
	reqEnc, reqDec, respEnc, respDec, rwdDec acc // per batch
	walAppend                                acc // per record
	wireBytes, codecAllocs                   int64
	jobs                                     int64
}

// ladder replays ops [lo, hi) of the world's stream single-threaded
// into a freshly built server, through each deeper exported entry point
// in turn — Server.ServeHTTP, Server.Rank, core featurization,
// bandit.Service.Rank, HintCache.Lookup, encoding/json on the wire
// types, wal.Append+Commit — recording one span per rung per op, all
// children of the op's span. The difference between adjacent rungs is
// the self time of the layer between them.
func ladder(wl *world, tr *tracer, lo, hi int, recBytes int) (lr ladderResult, err error) {
	if hi-lo > ladderOps {
		hi = lo + ladderOps
	}
	cat := rules.NewCatalog()
	dir, err := os.MkdirTemp(scratchRoot(), "qobench-ladder-")
	if err != nil {
		return lr, err
	}
	defer os.RemoveAll(dir)

	// The rung server: same configuration, the primary's current model
	// and hint table, its own journal in the workload's mode.
	model, err := probeService(wl.primary, wl.seed)
	if err != nil {
		return lr, err
	}
	cfg := serve.Config{Seed: wl.seed, Bandit: model, Drift: new(drift.Config)}
	*cfg.Drift = drift.DefaultConfig()
	if wl.spec.wal {
		j, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Mode: wl.spec.walMode})
		if err != nil {
			return lr, err
		}
		defer j.Close()
		cfg.WAL = j
	}
	srv := serve.New(cfg)
	defer srv.Close()
	hints, _ := wl.primary.Cache().Export()
	if len(hints) > 0 {
		if _, err := srv.InstallHints(hints); err != nil {
			return lr, err
		}
	}
	// Probe learner and probe journal for the rungs below the server.
	probe, err := probeService(wl.primary, wl.seed)
	if err != nil {
		return lr, err
	}
	var pj *wal.WAL
	var record []byte
	if wl.spec.wal && recBytes > 0 {
		if pj, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "probe"), Mode: wl.spec.walMode}); err != nil {
			return lr, err
		}
		defer pj.Close()
		record = bytes.Repeat([]byte{0x5a}, recBytes)
	}

	const lane = 0
	jobs := make([]api.RankRequest, batchSize)
	events := make([]api.RewardEvent, batchSize)
	vals := make([]float64, batchSize)
	hashes := make([]api.TemplateHash, batchSize)
	mw := &memWriter{hdr: make(http.Header)}
	var pendingTrain int
	var ms0, ms1 runtime.MemStats

	for g := lo; g < hi; g++ {
		wl.stream.fillBatch(wl.pop, g, jobs)
		opStart := time.Now()
		opID := tr.add(lane, spanOp, g, 0, opStart, opStart) // end patched below

		// Rung: Server.ServeHTTP on an in-memory request and recorder.
		reqBody, err := json.Marshal(api.BatchRankRequest{Jobs: jobs})
		if err != nil {
			return lr, err
		}
		req, err := http.NewRequest(http.MethodPost, api.RouteV2Rank, bytes.NewReader(reqBody))
		if err != nil {
			return lr, err
		}
		mw.reset()
		t0 := time.Now()
		srv.ServeHTTP(mw, req)
		t1 := time.Now()
		if mw.code != http.StatusOK {
			return lr, fmt.Errorf("ladder: /v2/rank answered %d: %s", mw.code, mw.buf.Bytes())
		}
		lr.httpRank.add(t1.Sub(t0), 1)
		tr.add(lane, spanServeHTTPRank, g, opID, t0, t1)
		respBody := append([]byte(nil), mw.buf.Bytes()...)
		var resp api.BatchRankResponse
		if err := json.Unmarshal(respBody, &resp); err != nil {
			return lr, err
		}
		if len(resp.Results) != batchSize {
			return lr, fmt.Errorf("ladder: /v2/rank returned %d results", len(resp.Results))
		}

		// Same rung, reward route: the batch this op would report.
		for j := range resp.Results {
			vals[j], hashes[j] = wl.stream.reward(wl.pop, g*batchSize+j), jobs[j].TemplateHash
			events[j] = api.RewardEvent{EventID: resp.Results[j].EventID, Reward: &vals[j], TemplateHash: &hashes[j]}
		}
		rwdBody, err := json.Marshal(api.BatchRewardRequest{Events: events})
		if err != nil {
			return lr, err
		}
		if req, err = http.NewRequest(http.MethodPost, api.RouteV2Reward, bytes.NewReader(rwdBody)); err != nil {
			return lr, err
		}
		mw.reset()
		t2 := time.Now()
		srv.ServeHTTP(mw, req)
		t3 := time.Now()
		if mw.code != http.StatusAccepted {
			return lr, fmt.Errorf("ladder: /v2/reward answered %d: %s", mw.code, mw.buf.Bytes())
		}
		lr.httpReward.add(t3.Sub(t2), 1)
		tr.add(lane, spanServeHTTPReward, g, opID, t2, t3)

		// Rung: Server.Rank, job by job.
		t4 := time.Now()
		for j := range jobs {
			if _, err := srv.Rank(jobs[j]); err != nil {
				return lr, fmt.Errorf("ladder: Server.Rank: %w", err)
			}
		}
		t5 := time.Now()
		lr.rank.add(t5.Sub(t4), batchSize)
		tr.add(lane, spanServeRank, g, opID, t4, t5)

		// Rung: core featurization; the contexts feed the bandit rung.
		var ctxs [batchSize]bandit.Context
		var acts [batchSize][]bandit.Action
		t6 := time.Now()
		for j := range jobs {
			var sp rules.Bitset
			for _, b := range jobs[j].Span {
				sp.Set(b)
			}
			f := &core.JobFeatures{Span: sp, RowCount: jobs[j].RowCount, BytesRead: jobs[j].BytesRead}
			ctxs[j] = core.ContextFeatures(f)
			acts[j], _ = core.ActionsFor(cat, f)
		}
		t7 := time.Now()
		lr.featurize.add(t7.Sub(t6), batchSize)
		tr.add(lane, spanCoreFeaturize, g, opID, t6, t7)

		// Rung: bandit.Service.Rank on the probe learner — then, outside
		// the span, the follower's greedy variant and the training these
		// decisions' rewards cause.
		var ids [batchSize]string
		t8 := time.Now()
		for j := range jobs {
			r, err := probe.Rank(ctxs[j], acts[j])
			if err != nil {
				return lr, fmt.Errorf("ladder: bandit.Rank: %w", err)
			}
			ids[j] = r.EventID
		}
		t9 := time.Now()
		lr.banditRank.add(t9.Sub(t8), batchSize)
		tr.add(lane, spanBanditRank, g, opID, t8, t9)
		for j := range jobs {
			if _, err := probe.RankGreedy(ctxs[j], acts[j]); err != nil {
				return lr, fmt.Errorf("ladder: bandit.RankGreedy: %w", err)
			}
		}
		lr.greedy.add(time.Since(t9), batchSize)
		for j := range jobs {
			if err := probe.Reward(ids[j], vals[j]); err != nil {
				return lr, err
			}
		}
		if pendingTrain += batchSize; pendingTrain >= bandit.DefaultTrainEvery {
			t := time.Now()
			n := probe.Train()
			lr.train.add(time.Since(t), n)
			pendingTrain = 0
		}

		// Rung: HintCache.Lookup.
		cache := srv.Cache()
		t10 := time.Now()
		for j := range jobs {
			cache.Lookup(uint64(jobs[j].TemplateHash))
		}
		t11 := time.Now()
		lr.lookup.add(t11.Sub(t10), batchSize)
		tr.add(lane, spanCacheLookup, g, opID, t10, t11)

		// Drift observation: the whole reward path of a hint-served job.
		t12 := time.Now()
		for j := range jobs {
			if err := srv.ObserveReward(uint64(jobs[j].TemplateHash), vals[j]); err != nil {
				return lr, err
			}
		}
		lr.observe.add(time.Since(t12), batchSize)

		// Rung: encoding/json on this op's real wire values, both
		// directions of the rank exchange plus the reward request.
		runtime.ReadMemStats(&ms0)
		c0 := time.Now()
		if _, err := json.Marshal(api.BatchRankRequest{Jobs: jobs}); err != nil {
			return lr, err
		}
		c1 := time.Now()
		var reqBack api.BatchRankRequest
		if err := json.Unmarshal(reqBody, &reqBack); err != nil {
			return lr, err
		}
		c2 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return lr, err
		}
		c3 := time.Now()
		var respBack api.BatchRankResponse
		if err := json.Unmarshal(respBody, &respBack); err != nil {
			return lr, err
		}
		c4 := time.Now()
		var rwdBack api.BatchRewardRequest
		if err := json.Unmarshal(rwdBody, &rwdBack); err != nil {
			return lr, err
		}
		c5 := time.Now()
		runtime.ReadMemStats(&ms1)
		lr.reqEnc.add(c1.Sub(c0), 1)
		lr.reqDec.add(c2.Sub(c1), 1)
		lr.respEnc.add(c3.Sub(c2), 1)
		lr.respDec.add(c4.Sub(c3), 1)
		lr.rwdDec.add(c5.Sub(c4), 1)
		lr.codecAllocs += int64(ms1.Mallocs - ms0.Mallocs)
		lr.wireBytes += int64(len(reqBody) + len(respBody))
		tr.add(lane, spanAPICodec, g, opID, c0, c5)

		// Rung: wal.Append+Commit at the workload's mean record size.
		if pj != nil {
			t13 := time.Now()
			lsn, err := pj.Append(record)
			if err == nil {
				err = pj.Commit(lsn)
			}
			t14 := time.Now()
			if err != nil {
				return lr, fmt.Errorf("ladder: wal: %w", err)
			}
			lr.walAppend.add(t14.Sub(t13), 1)
			tr.add(lane, spanWALAppendCommit, g, opID, t13, t14)
		}
		lr.jobs += batchSize
		tr.patchEnd(opID, time.Now())
	}
	return lr, nil
}

// stageMean is the mean of a /v2/stats stage histogram over the window
// between two scrapes, in µs.
func stageMean(s0, s1 api.StatsResponse, stage string) float64 {
	sum, n := histDelta(s0.Stages[stage].Hist, s1.Stages[stage].Hist)
	if n <= 0 {
		return 0
	}
	return sum / n / 1e3
}

// histDelta is (Δsum ns, Δcount) of a wire histogram between scrapes.
func histDelta(a, b *api.Hist) (sum, n float64) {
	if b == nil {
		return 0, 0
	}
	if a != nil {
		return float64(b.SumNanos - a.SumNanos), float64(b.Count - a.Count)
	}
	return float64(b.SumNanos), float64(b.Count)
}

// unattributedShare is 1 − Σ rank-stage time ÷ /v2/rank route time over
// the window: the part of the route's latency no stage histogram owns
// (decode, encode, fan-out wait, middleware). Stage time is summed
// across the fan-out's parallel lanes, so on a busy two-core box the
// share can dip below what a single-lane trace would show.
func unattributedShare(s0, s1 api.StatsResponse) float64 {
	r0, r1 := s0.Routes[api.RouteV2Rank], s1.Routes[api.RouteV2Rank]
	route, _ := histDelta(r0.Hist, r1.Hist)
	if route == 0 {
		return 0
	}
	var stages float64
	for _, st := range []string{"rank_hint_lookup", "rank_bandit"} {
		s, _ := histDelta(s0.Stages[st].Hist, s1.Stages[st].Hist)
		stages += s
	}
	return 1 - stages/route
}

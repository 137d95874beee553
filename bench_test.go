// Package qoadvisor_test is the reproduction benchmark harness: one
// benchmark per table and figure of the paper's evaluation (§5), plus
// ablation benchmarks for the design choices DESIGN.md calls out. Each
// benchmark regenerates its experiment on the simulated SCOPE substrate
// and reports the reproduction statistics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the same quantities the paper's tables and figures carry.
package qoadvisor_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/experiments"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/span"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/workload"
)

// benchConfig sizes the benchmark experiments: smaller than the Full
// reproduction run (see cmd/experiments) but large enough that shapes are
// visible in the reported metrics.
var benchConfig = experiments.Config{Seed: 42, NumTemplates: 24, AARuns: 8}

var (
	labOnce sync.Once
	labInst *experiments.Lab
	labErr  error
)

// sharedLab returns a lazily built lab shared by read-only benchmarks
// (the per-job compilation cache warms across benchmarks).
func sharedLab(b *testing.B) *experiments.Lab {
	b.Helper()
	labOnce.Do(func() {
		labInst, labErr = experiments.NewLab(benchConfig)
	})
	if labErr != nil {
		b.Fatal(labErr)
	}
	return labInst
}

// --- Figures 2-5: stability and variance ---

func BenchmarkFigure2RecurringLatencyStability(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Stability("latency")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracRegressed, "fracRegressedWeek1")
		b.ReportMetric(float64(len(res.Points)), "jobs")
	}
}

func BenchmarkFigure3LatencyVariance(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Variance("latency")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracAbove5, "fracAbove5pct")
		b.ReportMetric(res.MedianCV, "medianCV")
	}
}

func BenchmarkFigure4RecurringPNHoursStability(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Stability("pnhours")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracRegressed, "fracRegressedWeek1")
		b.ReportMetric(float64(len(res.Points)), "jobs")
	}
}

func BenchmarkFigure5PNHoursVariance(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Variance("pnhours")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracAbove5, "fracAbove5pct")
		b.ReportMetric(res.MedianCV, "medianCV")
	}
}

// --- Figures 6-8: estimated cost vs runtime, I/O correlations ---

func BenchmarkFigure6CostVsLatency(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.CostVsLatency()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pearson, "pearson")
		b.ReportMetric(res.FracRegressedAmongImproved, "fracLatencyRegressed")
	}
}

func BenchmarkFigure7DataReadCorrelation(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.IOCorrelation("read")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pearson, "pearson")
		b.ReportMetric(res.TrendSlope, "trendSlope")
	}
}

func BenchmarkFigure8DataWrittenCorrelation(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.IOCorrelation("written")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pearson, "pearson")
		b.ReportMetric(res.TrendSlope, "trendSlope")
	}
}

// --- Figure 9: validation model accuracy ---

func BenchmarkFigure9ValidationAccuracy(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.ValidationAccuracy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AcceptedCount), "accepted")
		b.ReportMetric(res.FracActualBelowT, "precisionBelowThreshold")
		b.ReportMetric(res.FracActualBelow0, "precisionBelow0")
	}
}

// --- Table 2 and Figures 10-12: the deployed pipeline's impact ---

func BenchmarkTable2AggregateImprovement(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Aggregate(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PNHoursReduction, "pnhoursReduction")
		b.ReportMetric(res.LatencyReduction, "latencyReduction")
		b.ReportMetric(res.VerticesReduction, "verticesReduction")
		b.ReportMetric(float64(res.MatchedJobs), "matchedJobs")
	}
}

func BenchmarkFigure10PNHoursDeltaDistribution(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Aggregate(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracPNImproved, "fracImproved")
		b.ReportMetric(res.BestPNDelta, "bestDelta")
		b.ReportMetric(res.WorstPNDelta, "worstDelta")
	}
}

func BenchmarkFigure11LatencyDeltaDistribution(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Aggregate(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FracLatencyImproved, "fracImproved")
		b.ReportMetric(res.BestLatencyDelta, "bestDelta")
		b.ReportMetric(res.WorstLatencyDelta, "worstDelta")
	}
}

func BenchmarkFigure12VerticesDeltaDistribution(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Aggregate(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestVertexDelta, "bestDelta")
		b.ReportMetric(res.WorstVertexDelta, "worstDelta")
	}
}

// --- Table 3: biased randomization ---

func BenchmarkTable3RandomVsCB(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		res, err := lab.Table3(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Random.LowerCost), "randomLower")
		b.ReportMetric(float64(res.CB.LowerCost), "cbLower")
		b.ReportMetric(float64(res.Random.Failures), "randomFailures")
		b.ReportMetric(float64(res.CB.Failures), "cbFailures")
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

// BenchmarkAblationMultiFlip compares the single-flip action space against
// greedily stacked two-flip configurations — the paper's §8 future-work
// direction ("in future work we will propose multiple rule flips").
func BenchmarkAblationMultiFlip(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 17, NumTemplates: 16})
	if err != nil {
		b.Fatal(err)
	}
	cat := rules.NewCatalog()
	for i := 0; i < b.N; i++ {
		singleWins, doubleWins := 0, 0
		var singleGain, doubleGain float64
		var recompiles int
		for _, tpl := range gen.Templates() {
			job, err := tpl.Instantiate(1, 0)
			if err != nil {
				continue
			}
			opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
			sp, err := span.Compute(job.Graph, cat, span.Options{Optimizer: opts})
			if err != nil || sp.Span.IsEmpty() {
				continue
			}
			one, err := core.GreedyMultiFlip(cat, job, sp.Span, 1)
			if err != nil {
				continue
			}
			two, err := core.GreedyMultiFlip(cat, job, sp.Span, 2)
			if err != nil {
				continue
			}
			recompiles += two.Recompilations
			if len(one.Flips) > 0 {
				singleWins++
				singleGain += -one.CostDelta()
			}
			if len(two.Flips) > 0 {
				doubleWins++
				doubleGain += -two.CostDelta()
			}
		}
		b.ReportMetric(float64(singleWins), "singleFlipWins")
		b.ReportMetric(float64(doubleWins), "twoFlipWins")
		b.ReportMetric(singleGain, "singleGainSum")
		b.ReportMetric(doubleGain, "twoFlipGainSum")
		b.ReportMetric(float64(recompiles), "recompilations")
	}
}

// BenchmarkAblationFeaturization compares span co-occurrence context
// features against a plan-level-only context (§6: span features were
// critical; plan featurizations were "mostly ineffective").
func BenchmarkAblationFeaturization(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 23, NumTemplates: 16, MaxDailyInstances: 2})
	if err != nil {
		b.Fatal(err)
	}
	cat := rules.NewCatalog()
	featurize := makeFeaturizer(b, gen, cat)

	for i := 0; i < b.N; i++ {
		evalLower := func(basic bool) float64 {
			cb := core.NewCBRecommender(cat, 31)
			cb.BasicContext = basic
			cb.Uniform = true
			for day := 1; day <= 10; day++ {
				core.Recommend(cb, cat, featurize(day))
				cb.Train()
			}
			cb.Uniform = false
			lower := 0
			for _, r := range core.Recommend(cb, cat, featurize(11)) {
				if !r.NoOp && !r.CompileFailed && r.CostDelta < 0 {
					lower++
				}
			}
			return float64(lower)
		}
		b.ReportMetric(evalLower(false), "spanFeatureLower")
		b.ReportMetric(evalLower(true), "basicFeatureLower")
	}
}

// BenchmarkAblationNoCostGate reproduces the §5.2 experiment that disabled
// all estimated-cost filters: without the cost gate, flighting processes
// arbitrarily bad plans and its time budget explodes ("after three days,
// QO-Advisor was not able to complete flighting").
func BenchmarkAblationNoCostGate(b *testing.B) {
	gen, err := workload.New(workload.Config{Seed: 29, NumTemplates: 16})
	if err != nil {
		b.Fatal(err)
	}
	cat := rules.NewCatalog()
	cluster := exec.DefaultCluster(29)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < b.N; i++ {
		var gatedHours, ungatedHours float64
		for _, tpl := range gen.Templates() {
			job, err := tpl.Instantiate(1, 0)
			if err != nil {
				continue
			}
			opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
			sp, err := span.Compute(job.Graph, cat, span.Options{Optimizer: opts})
			if err != nil || sp.Span.IsEmpty() {
				continue
			}
			base, err := optimizer.Optimize(job.Graph, cat.DefaultConfig(), opts)
			if err != nil {
				continue
			}
			bits := sp.Span.Bits()
			flip := cat.FlipFor(bits[rng.Intn(len(bits))])
			res, err := optimizer.Optimize(job.Graph, cat.DefaultConfig().WithFlip(flip), opts)
			if err != nil {
				continue
			}
			m := exec.Run(res.Plan, job.Truth, job.Stats, cluster, int64(i))
			ungatedHours += m.LatencySec / 3600
			if res.EstCost < base.EstCost { // the cost gate
				gatedHours += m.LatencySec / 3600
			}
		}
		b.ReportMetric(gatedHours, "gatedFlightHours")
		b.ReportMetric(ungatedHours, "ungatedFlightHours")
	}
}

// BenchmarkAblationValidationThreshold sweeps the validation threshold,
// the paper's aggressiveness knob (§4.3), reporting acceptance volume and
// precision at each setting.
func BenchmarkAblationValidationThreshold(b *testing.B) {
	lab := sharedLab(b)
	for i := 0; i < b.N; i++ {
		for _, threshold := range []float64{-0.02, -0.05, -0.10} {
			res, err := lab.ValidationSweep(threshold)
			if err != nil {
				b.Fatal(err)
			}
			name := "accepted@-0.02"
			prec := "precision@-0.02"
			switch threshold {
			case -0.05:
				name, prec = "accepted@-0.05", "precision@-0.05"
			case -0.10:
				name, prec = "accepted@-0.10", "precision@-0.10"
			}
			b.ReportMetric(float64(res.AcceptedCount), name)
			b.ReportMetric(res.FracActualBelow0, prec)
		}
	}
}

// --- Online steering serve path (internal/serve) ---
//
// These benchmarks baseline the production-facing layer: cached hint
// lookups must stay nanosecond-scale, bandit ranks must scale with
// GOMAXPROCS (run with -cpu 1,2,4,8 to see the scaling curve), and the
// async reward pipeline must drain faster than rewards arrive.

// benchServeHints builds n synthetic hints over distinct template hashes.
func benchServeHints(cat *rules.Catalog, n int) []sis.Hint {
	hints := make([]sis.Hint, n)
	for i := range hints {
		hints[i] = sis.Hint{
			TemplateHash: uint64(i)*0x9e3779b97f4a7c15 + 1,
			TemplateID:   "T",
			Flip:         cat.FlipFor(40 + i%64),
			Day:          1,
		}
	}
	return hints
}

// BenchmarkServeCachedHintLookup measures the serving fast path: a rank
// request whose template has a validated hint in the sharded cache.
func BenchmarkServeCachedHintLookup(b *testing.B) {
	cat := rules.NewCatalog()
	srv := serve.New(serve.Config{Catalog: cat, Seed: 1})
	defer srv.Close()
	const numHints = 10000
	hints := benchServeHints(cat, numHints)
	if _, err := srv.InstallHints(hints); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := api.RankRequest{TemplateHash: api.TemplateHash(hints[i%numHints].TemplateHash), Span: []int{40}}
			resp, err := srv.Rank(req)
			if err != nil {
				b.Error(err)
				return
			}
			if resp.Source != api.SourceHint {
				b.Errorf("cache miss for installed hint %x", req.TemplateHash)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(srv.Cache().Size()), "cachedHints")
}

// benchCachedHintRank is the shared body of the drift-overhead A/B
// pair: rank requests that always hit the hint cache, the path the
// safeguard's ±3%/0-alloc budget governs.
func benchCachedHintRank(b *testing.B, srv *serve.Server, hints []sis.Hint) {
	b.Helper()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := api.RankRequest{TemplateHash: api.TemplateHash(hints[i%len(hints)].TemplateHash), Span: []int{40}}
			resp, err := srv.Rank(req)
			if err != nil {
				b.Error(err)
				return
			}
			if resp.Source != api.SourceHint {
				b.Errorf("cache miss for installed hint %x", req.TemplateHash)
				return
			}
			i++
		}
	})
}

// BenchmarkServeCachedHintDriftOff is the drift-overhead baseline arm:
// the identical cached-hint workload with the safeguard left at its
// default (no detector, empty enforcement table — one atomic nil-load
// per rank).
func BenchmarkServeCachedHintDriftOff(b *testing.B) {
	cat := rules.NewCatalog()
	srv := serve.New(serve.Config{Catalog: cat, Seed: 1})
	defer srv.Close()
	hints := benchServeHints(cat, 10000)
	if _, err := srv.InstallHints(hints); err != nil {
		b.Fatal(err)
	}
	benchCachedHintRank(b, srv, hints)
}

// BenchmarkServeCachedHintDriftOn is the treatment arm: drift
// detection enabled and a populated quarantine table (64 OTHER
// templates held), so every cached-hint rank pays the full enforcement
// check — atomic load plus a map probe that misses.
func BenchmarkServeCachedHintDriftOn(b *testing.B) {
	cat := rules.NewCatalog()
	dc := drift.DefaultConfig()
	srv := serve.New(serve.Config{Catalog: cat, Seed: 1, Drift: &dc})
	defer srv.Close()
	hints := benchServeHints(cat, 10000)
	if _, err := srv.InstallHints(hints); err != nil {
		b.Fatal(err)
	}
	quarantined := make(map[uint64]drift.State, 64)
	for i := 0; i < 64; i++ {
		quarantined[uint64(i)*0x9e3779b97f4a7c15+2] = drift.StateQuarantined // +2: disjoint from the hint hashes
	}
	srv.RestoreQuarantines(quarantined)
	benchCachedHintRank(b, srv, hints)
}

// BenchmarkServeConcurrentRank measures bandit-path rank throughput under
// request concurrency: scoring shares a read lock, so throughput should
// scale across GOMAXPROCS until the rng/event-log critical sections bite.
func BenchmarkServeConcurrentRank(b *testing.B) {
	srv := serve.New(serve.Config{Seed: 1})
	defer srv.Close()
	spans := [][]int{
		{3, 17, 40, 77},
		{5, 21, 60, 100, 130},
		{8, 9, 44, 91},
		{12, 30, 71, 150, 200, 201},
	}
	var seq atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := seq.Add(1)
			req := api.RankRequest{
				TemplateHash: api.TemplateHash(n), // no hint installed: always the bandit path
				Span:         spans[n%uint64(len(spans))],
				RowCount:     float64(uint64(1) << (n % 20)),
			}
			if _, err := srv.Rank(req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeRewardIngestionDrain measures the async reward pipeline
// end to end: enqueue a batch of rewards for logged rank events, then
// drain it through the worker pool into IPS training.
func BenchmarkServeRewardIngestionDrain(b *testing.B) {
	const batch = 512
	srv := serve.New(serve.Config{Seed: 1, QueueSize: batch, TrainEvery: 64})
	defer srv.Close()
	req := api.RankRequest{TemplateHash: 1, Span: []int{3, 17, 40}}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ids := make([]string, batch)
		for j := range ids {
			resp, err := srv.Rank(req)
			if err != nil {
				b.Fatal(err)
			}
			ids[j] = resp.EventID
		}
		b.StartTimer()
		for _, id := range ids {
			for !srv.RewardAsync(id, 1.5) {
				// Queue full: the workers are mid-drain, retry.
			}
		}
		srv.Ingestor().Drain()
	}
	st := srv.Ingestor().Stats()
	b.ReportMetric(float64(st.Applied)/float64(b.N), "rewards/drain")
	b.ReportMetric(float64(st.TrainRuns)/float64(b.N), "trainRuns/drain")
}

// BenchmarkServeBatchRankHTTP measures the versioned protocol end to
// end: a /v2/rank batch through the typed client (JSON encode, HTTP
// round trip, server-side fan-out over the rank pool, JSON decode),
// reported per job. Half the batch hits the hint cache, half takes the
// bandit path — the mixed steady state of a production rollover.
func BenchmarkServeBatchRankHTTP(b *testing.B) {
	cat := rules.NewCatalog()
	srv := serve.New(serve.Config{Catalog: cat, Seed: 1})
	defer srv.Close()
	const numHints = 1024
	if _, err := srv.InstallHints(benchServeHints(cat, numHints)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()

	for _, batchSize := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("batch=%d", batchSize), func(b *testing.B) {
			jobs := make([]api.RankRequest, batchSize)
			for i := range jobs {
				if i%2 == 0 { // hint path
					jobs[i] = api.RankRequest{
						TemplateHash: api.TemplateHash(uint64(i/2%numHints)*0x9e3779b97f4a7c15 + 1),
						Span:         []int{40 + (i / 2 % 64)},
					}
				} else { // bandit path
					jobs[i] = api.RankRequest{
						TemplateHash: api.TemplateHash(uint64(i)<<32 | 0xbad),
						Span:         []int{3, 17, 40 + i%64},
						RowCount:     float64(1000 * i),
					}
				}
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				resp, err := cl.RankBatch(ctx, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Results) != batchSize {
					b.Fatalf("got %d results for %d jobs", len(resp.Results), batchSize)
				}
			}
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkServeHintRollover measures the pipeline rollover hot swap:
// building and installing a fresh sharded table (Replace pre-sizes each
// shard map to its expected share, so the build avoids incremental map
// growth).
func BenchmarkServeHintRollover(b *testing.B) {
	cat := rules.NewCatalog()
	for _, size := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("hints=%d", size), func(b *testing.B) {
			hints := benchServeHints(cat, size)
			cache := serve.NewHintCache(0)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cache.Replace(hints)
			}
			b.StopTimer()
			if cache.Size() != size {
				b.Fatalf("cache size = %d, want %d", cache.Size(), size)
			}
			b.ReportMetric(float64(size)/(b.Elapsed().Seconds()/float64(b.N))/1e6, "Mhints/s")
		})
	}
}

// makeFeaturizer builds the shared job featurization used by the
// featurization ablation.
func makeFeaturizer(b *testing.B, gen *workload.Generator, cat *rules.Catalog) func(day int) []*core.JobFeatures {
	b.Helper()
	spanCache := make(map[uint64]rules.Bitset)
	return func(day int) []*core.JobFeatures {
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			b.Fatal(err)
		}
		var out []*core.JobFeatures
		for _, job := range jobs {
			opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
			sp, ok := spanCache[job.Template.Hash]
			if !ok {
				res, err := span.Compute(job.Graph, cat, span.Options{Optimizer: opts})
				if err != nil {
					spanCache[job.Template.Hash] = rules.Bitset{}
					continue
				}
				sp = res.Span
				spanCache[job.Template.Hash] = sp
			}
			if sp.IsEmpty() {
				continue
			}
			base, err := optimizer.Optimize(job.Graph, cat.DefaultConfig(), opts)
			if err != nil {
				continue
			}
			out = append(out, &core.JobFeatures{
				Job: job, EstCost: base.EstCost, Span: sp,
				RowCount: base.Plan.Roots[0].EstRows,
			})
		}
		return out
	}
}

// --- Pipeline + bandit hot-path benchmarks (PR 2) ---

// benchPipelineInputs builds one production day's jobs and workload view,
// the pure inputs every BenchmarkPipelineDay iteration replays.
func benchPipelineInputs(b *testing.B, numTemplates int) (*rules.Catalog, []*workload.Job, []workload.ViewRow) {
	b.Helper()
	cat := rules.NewCatalog()
	gen, err := workload.New(workload.Config{Seed: 9, NumTemplates: numTemplates, MaxDailyInstances: 2})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := gen.JobsForDay(1)
	if err != nil {
		b.Fatal(err)
	}
	prod := core.NewProduction(cat, sis.NewStore(cat), exec.DefaultCluster(1), 3)
	_, view, err := prod.RunDay(1, jobs)
	if err != nil {
		b.Fatal(err)
	}
	return cat, jobs, view
}

// BenchmarkPipelineDay measures one full advisor day (Feature Generation →
// Recommendation → Recompilation → Flighting → Validation → upload) with
// the worker pools pinned sequential vs fanned across GOMAXPROCS. Each
// iteration builds a fresh advisor, so the compile cache starts cold and
// the two arms do identical work; parallel output is bit-identical to
// sequential (TestParallelRunDayDeterministic).
func BenchmarkPipelineDay(b *testing.B) {
	cat, jobs, view := benchPipelineInputs(b, 48)
	run := func(b *testing.B, parallelism, cacheSize int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			adv := core.NewAdvisor(cat, sis.NewStore(cat), core.Config{
				Seed:                 1,
				MinValidationSamples: 5,
				Parallelism:          parallelism,
				CompileCacheSize:     cacheSize,
				Flighting:            flighting.Config{Catalog: cat, Seed: 2},
			})
			if _, err := adv.RunDay(1, jobs, view); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("sequential-nocache", func(b *testing.B) { run(b, 1, -1) })
	b.Run("sequential", func(b *testing.B) { run(b, 1, 0) })
	b.Run(fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), func(b *testing.B) { run(b, 0, 0) })
}

// benchSpanFeatures is a realistic 8-bit job span for featurization
// benchmarks (large enough that the pair/triple crosses dominate).
func benchSpanFeatures() *core.JobFeatures {
	var f core.JobFeatures
	for _, bit := range []int{3, 9, 17, 24, 31, 40, 52, 63} {
		f.Span.Set(bit)
	}
	f.RowCount = 1e7
	f.BytesRead = 1e10
	return &f
}

// BenchmarkContextFeatures measures building the bandit context by
// integer mixing over span bits.
func BenchmarkContextFeatures(b *testing.B) {
	f := benchSpanFeatures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = core.ContextFeatures(f)
	}
}

// BenchmarkBanditRank measures one Rank decision on the pipeline/serve
// hot path: context and actions carry pre-hashed IDs, so Rank mixes
// integers without touching a string.
func BenchmarkBanditRank(b *testing.B) {
	cat := rules.NewCatalog()
	f := benchSpanFeatures()
	cfg := bandit.DefaultConfig(1)
	cfg.MaxLogEvents = 4096
	svc := bandit.New(cfg)
	ctx := core.ContextFeatures(f)
	actions, _ := core.ActionsFor(cat, f)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Rank(ctx, actions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures the durable reward journal's raw append
// path per durability mode: off (buffer only), async (group-commit
// window in the background), and sync (the caller waits for the group
// fsync — run with -cpu to see group commit amortize concurrent
// committers into shared syncs).
func BenchmarkWALAppend(b *testing.B) {
	payload := make([]byte, 128)
	for i := range payload {
		payload[i] = byte(i)
	}
	for _, mode := range []wal.Mode{wal.ModeOff, wal.ModeAsync, wal.ModeSync} {
		b.Run("mode="+mode.String(), func(b *testing.B) {
			w, err := wal.Open(wal.Options{Dir: b.TempDir(), Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					lsn, err := w.Append(payload)
					if err != nil {
						b.Error(err)
						return
					}
					if err := w.Commit(lsn); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			st := w.Stats()
			b.ReportMetric(float64(st.Appends)/b.Elapsed().Seconds(), "appends/s")
			if st.Appends > 0 {
				b.ReportMetric(float64(st.Syncs)/float64(st.Appends), "syncs/append")
			}
		})
	}
}

// BenchmarkRewardDurable measures the full batch-rank/reward serving
// cycle end to end — one /v2/rank batch through the typed client, the
// matching /v2/reward batch, and the drain into IPS training — per
// journal durability mode, against the in-memory baseline (wal=none,
// the PR 3 configuration). This is the production steady state every
// reward implies (a reward only exists for a ranked event), so the
// journal's cost — rank records under the event-log mutex, the reward
// batch record journaled before the 202, and the group-commit fsyncs
// timesharing the host — is charged against the whole cycle, not
// smuggled into an idle window. The acceptance bar for the WAL
// subsystem is async group-commit sustaining >= 80% of the in-memory
// pairs/s.
func BenchmarkRewardDurable(b *testing.B) {
	const batch = 256
	run := func(b *testing.B, j *wal.WAL) {
		srv := serve.New(serve.Config{Seed: 1, QueueSize: 4 * batch, TrainEvery: 64, WAL: j})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		cl := client.New(ts.URL)
		ctx := context.Background()

		jobs := make([]api.RankRequest, batch)
		for i := range jobs {
			jobs[i] = api.RankRequest{
				TemplateHash: api.TemplateHash(uint64(i)<<20 | 0xd00d), // no hints: bandit path
				Span:         []int{3 + i%40, 60 + i%50, 120 + i%30},
				RowCount:     float64(1000 * (i + 1)),
			}
		}
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			ranked, err := cl.RankBatch(ctx, jobs)
			if err != nil {
				b.Fatal(err)
			}
			events := make([]api.RewardEvent, batch)
			for i, res := range ranked.Results {
				if res.Error != nil || res.EventID == "" {
					b.Fatalf("job %d: %+v", i, res)
				}
				v := 1.5
				events[i] = api.RewardEvent{EventID: res.EventID, Reward: &v}
			}
			resp, err := cl.RewardBatch(ctx, events)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Queued != batch {
				b.Fatalf("queued %d of %d: %+v", resp.Queued, batch, resp.Rejected)
			}
			srv.Ingestor().Drain()
		}
		b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "pairs/s")
		if j != nil {
			st := j.Stats()
			b.ReportMetric(float64(st.Syncs)/float64(b.N), "syncs/batch")
			b.ReportMetric(float64(st.AppendedBytes)/float64(b.N*batch), "walB/pair")
		}
	}

	b.Run("wal=none", func(b *testing.B) { run(b, nil) })
	for _, mode := range []wal.Mode{wal.ModeOff, wal.ModeAsync, wal.ModeSync} {
		b.Run("wal="+mode.String(), func(b *testing.B) {
			j, err := wal.Open(wal.Options{Dir: b.TempDir(), Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			run(b, j)
		})
	}
}

// BenchmarkWALRecovery measures rebuilding a model from the journal —
// the startup cost a crash adds — per 10k-record journal.
func BenchmarkWALRecovery(b *testing.B) {
	dir := b.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeOff})
	if err != nil {
		b.Fatal(err)
	}
	svc := bandit.New(bandit.DefaultConfig(1))
	svc.AttachJournal(j)
	ctx := bandit.Context{IDs: []uint64{0x11, 0x22, 0x33}}
	actions := []bandit.Action{{IDs: []uint64{1}}, {IDs: []uint64{2}}, {IDs: []uint64{3}}}
	var entries []bandit.RewardEntry
	for i := 0; i < 5000; i++ {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, bandit.RewardEntry{EventID: r.EventID, Value: 1.0})
		if len(entries) == 64 {
			if _, err := j.Append(bandit.EncodeRewardBatch(entries)); err != nil {
				b.Fatal(err)
			}
			entries = entries[:0]
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	records := 5000 + 5000/64

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rec, err := serve.Recover(wal.DirSource{Dir: dir}, "", 256, 0, 9)
		if err != nil {
			b.Fatal(err)
		}
		if rec.Journal.Records != int64(records) {
			b.Fatalf("replayed %d records, want %d", rec.Journal.Records, records)
		}
	}
	b.ReportMetric(float64(records*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkWALStream measures the replication ship path: a follower
// catching up over HTTP from a journal of framed rank/reward records.
// One op = one full catch-up of the journal (reconnect + stream +
// CRC-verify every frame); records/s is the shipping rate a follower
// can ingest from a primary on this host.
func BenchmarkWALStream(b *testing.B) {
	dir := b.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeOff})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	srv := serve.New(serve.Config{Seed: 3, WAL: j})
	defer srv.Close()

	// A realistic record mix: rank records with resolved feature IDs,
	// reward batches every 64 ranks.
	svc := srv.Bandit()
	ctx := bandit.Context{IDs: []uint64{0x11, 0x22, 0x33, 0x44}}
	actions := []bandit.Action{{IDs: []uint64{1}}, {IDs: []uint64{2}}, {IDs: []uint64{3}}}
	var entries []bandit.RewardEntry
	const ranks = 20000
	for i := 0; i < ranks; i++ {
		r, err := svc.Rank(ctx, actions)
		if err != nil {
			b.Fatal(err)
		}
		entries = append(entries, bandit.RewardEntry{EventID: r.EventID, Value: 1.0})
		if len(entries) == 64 {
			if _, err := j.Append(bandit.EncodeRewardBatch(entries)); err != nil {
				b.Fatal(err)
			}
			entries = entries[:0]
		}
	}
	if err := j.Sync(); err != nil {
		b.Fatal(err)
	}
	records := j.LastLSN()

	ts := httptest.NewServer(srv)
	defer ts.Close()
	hc := &http.Client{}
	var bytesShipped int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		resp, err := hc.Get(fmt.Sprintf("%s%s?from=0&wait=1", ts.URL, api.RouteV2WAL))
		if err != nil {
			b.Fatal(err)
		}
		var got uint64
		for {
			lsn, payload, err := api.ReadWALFrame(resp.Body)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			got = lsn
			bytesShipped += int64(len(payload) + api.WALFrameHeaderSize)
		}
		resp.Body.Close()
		if got != records {
			b.Fatalf("stream ended at LSN %d, journal has %d", got, records)
		}
	}
	b.ReportMetric(float64(uint64(b.N)*records)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(bytesShipped)/b.Elapsed().Seconds()/(1<<20), "MiB/s")
}

// BenchmarkFollowerRank measures the read-scaled serving path this PR
// exists for: /v2/rank batches answered by a live follower from its
// replicated hint table and model, compared head-to-head with the
// primary answering the identical batch. The follower's bandit path is
// RankGreedy — no event log append, no rng — so its rank cost bounds
// the fleet's per-replica read capacity.
func BenchmarkFollowerRank(b *testing.B) {
	const batch = 256
	cat := rules.NewCatalog()

	setup := func(b *testing.B) (*httptest.Server, *httptest.Server, func()) {
		dir := b.TempDir()
		j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeAsync})
		if err != nil {
			b.Fatal(err)
		}
		primary := serve.New(serve.Config{Catalog: cat, Seed: 5, WAL: j})
		pts := httptest.NewServer(primary)
		hints := make([]sis.Hint, 512)
		for i := range hints {
			hints[i] = sis.Hint{TemplateHash: uint64(0x4000 + i), TemplateID: fmt.Sprintf("T%d", i), Flip: cat.FlipFor(40 + i%40), Day: 1}
		}
		if _, err := primary.InstallHints(hints); err != nil {
			b.Fatal(err)
		}
		f, err := replicate.Start(replicate.Config{Primary: pts.URL, Catalog: cat, Seed: 6, PollWait: 100 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		if err := f.WaitCaughtUp(context.Background(), 10*time.Second); err != nil {
			b.Fatal(err)
		}
		fts := httptest.NewServer(f)
		return pts, fts, func() {
			fts.Close()
			f.Close()
			pts.Close()
			primary.Close()
			j.Close()
		}
	}

	jobs := make([]api.RankRequest, batch)
	for i := range jobs {
		hash := uint64(0x4000 + i%512) // hint hits
		if i%4 == 3 {
			hash = uint64(0xdead0000 + i) // bandit path
		}
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(hash),
			Span:         []int{2 + i%40, 60 + i%50, 130 + i%40},
			RowCount:     float64(300 * (i + 1)),
		}
	}

	pts, fts, cleanup := setup(b)
	defer cleanup()
	for _, node := range []struct {
		name string
		url  string
	}{{"node=primary", pts.URL}, {"node=follower", fts.URL}} {
		b.Run(node.name, func(b *testing.B) {
			cl := client.New(node.url)
			ctx := context.Background()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				resp, err := cl.RankBatch(ctx, jobs)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Results) != batch {
					b.Fatalf("got %d results", len(resp.Results))
				}
			}
			b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "ranks/s")
		})
	}
}

// BenchmarkClusterRank measures aggregate rank throughput as serving
// nodes are added: the same batch workload pushed through a 1-node
// client and through a rotation over primary + follower. On a
// multi-core host the second node adds capacity; on a single-CPU
// container the nodes timeshare one core and the benchmark records the
// rotation's distribution overhead instead (see BENCH_replicate.json's
// host note).
func BenchmarkClusterRank(b *testing.B) {
	const batch = 256
	cat := rules.NewCatalog()
	dir := b.TempDir()
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeAsync})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	primary := serve.New(serve.Config{Catalog: cat, Seed: 5, WAL: j})
	defer primary.Close()
	pts := httptest.NewServer(primary)
	defer pts.Close()
	hints := make([]sis.Hint, 512)
	for i := range hints {
		hints[i] = sis.Hint{TemplateHash: uint64(0x4000 + i), TemplateID: fmt.Sprintf("T%d", i), Flip: cat.FlipFor(40 + i%40), Day: 1}
	}
	if _, err := primary.InstallHints(hints); err != nil {
		b.Fatal(err)
	}
	f, err := replicate.Start(replicate.Config{Primary: pts.URL, Catalog: cat, Seed: 6, PollWait: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitCaughtUp(context.Background(), 10*time.Second); err != nil {
		b.Fatal(err)
	}
	fts := httptest.NewServer(f)
	defer fts.Close()

	jobs := make([]api.RankRequest, batch)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(uint64(0x4000 + i%512)),
			Span:         []int{2 + i%40, 60 + i%50},
			RowCount:     float64(100 * (i + 1)),
		}
	}

	for _, tc := range []struct {
		name      string
		endpoints []string
	}{
		{"nodes=1", []string{pts.URL}},
		{"nodes=2", []string{pts.URL, fts.URL}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cc, err := client.NewCluster(tc.endpoints)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// Concurrent submitters, as a fleet of SCOPE compile frontends
			// would drive the cluster.
			workers := 4
			b.ResetTimer()
			var total atomic.Int64
			var wg sync.WaitGroup
			per := b.N/workers + 1
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < per; n++ {
						resp, err := cc.RankBatch(ctx, jobs)
						if err != nil {
							b.Error(err)
							return
						}
						total.Add(int64(len(resp.Results)))
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(total.Load())/b.Elapsed().Seconds(), "ranks/s")
		})
	}
}

// --- Incident flight recorder: tail-retention A/B + capture latency ---

// BenchmarkServeBatchRankFlightOn prices the flight recorder's
// unretained fast path: a mixed 16-job /v2/rank batch through the HTTP
// layer, where the recorder begins and finishes every request. All
// requests answer far under the rank slow threshold, so nothing is
// retained (pooled span buffer in, spans recorded, buffer back to the
// pool).
func BenchmarkServeBatchRankFlightOn(b *testing.B) {
	const batchSize = 16
	srv := serve.New(serve.Config{Seed: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	jobs := make([]api.RankRequest, batchSize)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(uint64(i)<<32 | 0xbad),
			Span:         []int{3, 17, 40 + i%64},
			RowCount:     float64(1000 * i),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		resp, err := cl.RankBatch(ctx, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Results) != batchSize {
			b.Fatalf("got %d results for %d jobs", len(resp.Results), batchSize)
		}
	}
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "jobs/s")
	if st := srv.FlightRecorder().Stats(); st.Retained != 0 {
		b.Fatalf("benchmark retained %d traces; it only prices the unretained path", st.Retained)
	}
}

// BenchmarkIncidentCapture measures one diagnostic-bundle capture end
// to end — goroutine + heap profiles, stats/traces/histograms JSON,
// meta — via the manual trigger (force bypasses the cooldown, so every
// iteration captures). This is the pause an incident costs the node.
func BenchmarkIncidentCapture(b *testing.B) {
	srv := serve.New(serve.Config{Seed: 1, Incidents: &serve.IncidentConfig{Dir: b.TempDir()}})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)
	ctx := context.Background()
	// A little traffic so the bundle has real content.
	if _, err := cl.RankBatch(ctx, []api.RankRequest{{TemplateHash: 7, Span: []int{3, 17, 40}}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := cl.TriggerIncident(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

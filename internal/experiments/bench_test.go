package experiments_test

// One benchmark per table and figure of the paper's evaluation (§5),
// plus ablation benchmarks for its design choices. Each regenerates its
// experiment on the simulated SCOPE substrate and reports the
// reproduction statistics via b.ReportMetric, so
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/experiments
//
// prints the same quantities the paper's tables and figures carry.

import (
	"math/rand"
	"sync"
	"testing"

	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/experiments"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/span"
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

// --- Ablations ---

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
			sp, err := span.Compute(job.Graph, cat, opts)
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
				res, err := span.Compute(job.Graph, cat, opts)
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

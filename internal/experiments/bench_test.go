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
var benchConfig = experiments.Config{Seed: 42, NumTemplates: 24}

var (
	labOnce sync.Once
	labInst *experiments.Lab
	labErr  error
)

// sharedLab returns a lazily built lab shared by read-only benchmarks
// (its flights and the job instances' rewrite memos warm across benchmarks).
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

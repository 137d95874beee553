// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the simulated SCOPE substrate and prints the
// same rows and series the paper reports. testdata/quick.golden is the
// committed `-scale quick` output (TestQuickGolden diffs against it) and
// EXPERIMENTS.md the paper-versus-measured record written from it.
//
// Usage:
//
//	experiments [-scale quick|full] [-only fig2,fig3,...,table2,table3]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qoadvisor/internal/experiments"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated subset (fig2..fig12, table2, table3)")
	flag.Parse()
	if err := run(os.Stdout, *scale, *only); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// run prints the selected tables and figures to w. The output is a pure
// function of (scale, only): fixed seed, no timings — which is what lets
// testdata/quick.golden pin it.
func run(w io.Writer, scale, only string) error {
	cfg := experiments.Quick
	if scale == "full" {
		cfg = experiments.Full
	}
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}

	want := map[string]bool{}
	if only != "" {
		for _, k := range strings.Split(only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	sel := func(keys ...string) bool {
		for _, k := range keys {
			if len(want) == 0 || want[k] {
				return true
			}
		}
		return false
	}

	fmt.Fprintf(w, "QO-Advisor experiment reproduction (scale=%s, %d templates, seed %d)\n\n",
		scale, cfg.NumTemplates, cfg.Seed)

	sections := []struct {
		on    bool
		print func(io.Writer, *experiments.Lab) error
	}{
		{sel("fig2"), figure2},
		{sel("fig3"), figure3},
		{sel("fig4"), figure4},
		{sel("fig5"), figure5},
		{sel("fig6"), figure6},
		{sel("fig7"), figure7},
		{sel("fig8"), figure8},
		{sel("fig9"), figure9},
		{sel("table2", "fig10", "fig11", "fig12"), table2},
		{sel("table3"), table3},
	}
	for _, s := range sections {
		if !s.on {
			continue
		}
		if err := s.print(w, lab); err != nil {
			return err
		}
	}
	return nil
}

func figure2(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.Stability("latency")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 2: recurring job stability (latency) ===")
	fmt.Fprintf(w, "jobs measured: %d\n", len(res.Points))
	fmt.Fprintf(w, "jobs with week-0 latency improvement: %s\n", experiments.FormatPct(res.FracImproved))
	fmt.Fprintf(w, "improved jobs regressing in week 1:   %s   (paper: >40%%)\n\n", experiments.FormatPct(res.FracRegressed))
	return nil
}

func figure3(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.Variance("latency")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 3: A/A latency variance ===")
	fmt.Fprintf(w, "jobs: %d (x%d runs)\n", len(res.Points), experiments.AARuns)
	fmt.Fprintf(w, "jobs above 5%% latency variance: %s   (paper: >90%%)\n", experiments.FormatPct(res.FracAbove5))
	fmt.Fprintf(w, "median CV %.3f, max CV %.2f\n\n", res.MedianCV, res.MaxCV)
	return nil
}

func figure4(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.Stability("pnhours")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 4: recurring job stability (PNhours) ===")
	fmt.Fprintf(w, "jobs measured: %d\n", len(res.Points))
	fmt.Fprintf(w, "jobs with week-0 PNhours improvement: %s\n", experiments.FormatPct(res.FracImproved))
	fmt.Fprintf(w, "improved jobs regressing in week 1:   %s   (paper: >40%%)\n\n", experiments.FormatPct(res.FracRegressed))
	return nil
}

func figure5(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.Variance("pnhours")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 5: A/A PNhours variance ===")
	fmt.Fprintf(w, "jobs: %d (x%d runs)\n", len(res.Points), experiments.AARuns)
	fmt.Fprintf(w, "jobs above 5%% PNhours variance: %s   (paper: <50%%)\n", experiments.FormatPct(res.FracAbove5))
	fmt.Fprintf(w, "median CV %.3f, max CV %.2f\n\n", res.MedianCV, res.MaxCV)
	return nil
}

func figure6(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.CostVsLatency()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 6: estimated-cost delta vs latency delta ===")
	fmt.Fprintf(w, "flighted jobs: %d over 5 days\n", len(res.Observations))
	fmt.Fprintf(w, "Pearson %.3f, Spearman %.3f   (paper: no real correlation)\n", res.Pearson, res.Spearman)
	fmt.Fprintf(w, "cost-improved jobs with latency regression: %s   (paper: >40%%)\n\n",
		experiments.FormatPct(res.FracRegressedAmongImproved))
	return nil
}

func figure7(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.IOCorrelation("read")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 7: DataRead delta vs PNhours delta ===")
	fmt.Fprintf(w, "observations: %d, Pearson %.3f, trend slope %.3f   (paper: positive trend)\n\n",
		len(res.Observations), res.Pearson, res.TrendSlope)
	return nil
}

func figure8(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.IOCorrelation("written")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 8: DataWritten delta vs PNhours delta ===")
	fmt.Fprintf(w, "observations: %d, Pearson %.3f, trend slope %.3f   (paper: positive trend)\n\n",
		len(res.Observations), res.Pearson, res.TrendSlope)
	return nil
}

func figure9(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.ValidationAccuracy()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Figure 9: validation model accuracy (temporal split) ===")
	fmt.Fprintf(w, "train/test samples: %d/%d, threshold %.2f\n", res.TrainSamples, res.TestSamples, res.Threshold)
	fmt.Fprintf(w, "model: %s (test R^2 %.2f)\n", res.Model, res.RSquaredOnTest)
	fmt.Fprintf(w, "accepted (predicted < threshold): %d\n", res.AcceptedCount)
	fmt.Fprintf(w, "  of which actual < threshold: %s   (paper: 85%%)\n", experiments.FormatPct(res.FracActualBelowT))
	fmt.Fprintf(w, "  of which actual < 0:         %s   (paper: 91%%)\n\n", experiments.FormatPct(res.FracActualBelow0))
	return nil
}

func table2(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.Aggregate(8)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Table 2: pre-production aggregate results ===")
	fmt.Fprintf(w, "training days: %d, matched jobs on evaluation day: %d of %d\n",
		res.TrainingDays, res.MatchedJobs, res.TotalJobs)
	fmt.Fprintf(w, "%-10s %12s %12s\n", "Metric", "%Reduction", "(paper)")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "PNhours", experiments.FormatPct(res.PNHoursReduction), "-14.3%")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "Latency", experiments.FormatPct(res.LatencyReduction), "-8.9%")
	fmt.Fprintf(w, "%-10s %12s %12s\n\n", "Vertices", experiments.FormatPct(res.VerticesReduction), "-52.8%")

	fmt.Fprintln(w, "=== Figure 10: per-job PNhours delta (sorted) ===")
	printSeries(w, res.SortedDeltas("pnhours"))
	fmt.Fprintf(w, "improved: %s, best %s, worst %s   (paper: ~80%%, -50%%, +15%%)\n\n",
		experiments.FormatPct(res.FracPNImproved), experiments.FormatPct(res.BestPNDelta), experiments.FormatPct(res.WorstPNDelta))

	fmt.Fprintln(w, "=== Figure 11: per-job latency delta (sorted) ===")
	printSeries(w, res.SortedDeltas("latency"))
	fmt.Fprintf(w, "improved: %s, best %s, worst %s   (paper: ~80%%, -90%%, +45%%)\n\n",
		experiments.FormatPct(res.FracLatencyImproved), experiments.FormatPct(res.BestLatencyDelta), experiments.FormatPct(res.WorstLatencyDelta))

	fmt.Fprintln(w, "=== Figure 12: per-job vertices delta (sorted) ===")
	printSeries(w, res.SortedDeltas("vertices"))
	fmt.Fprintf(w, "best %s, worst %s   (paper: -60%%, +10%%)\n\n",
		experiments.FormatPct(res.BestVertexDelta), experiments.FormatPct(res.WorstVertexDelta))
	return nil
}

func printSeries(w io.Writer, xs []float64) {
	if len(xs) == 0 {
		fmt.Fprintln(w, "  (no matched jobs)")
		return
	}
	fmt.Fprint(w, "  ")
	for i, x := range xs {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%+.2f", x)
	}
	fmt.Fprintln(w)
}

func table3(w io.Writer, lab *experiments.Lab) error {
	res, err := lab.Table3(10)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== Table 3: random vs contextual-bandit rule flips ===")
	fmt.Fprintf(w, "jobs: %d (non-empty span: %s; paper: ~66%%), CB trained %d days off-policy\n",
		res.JobsConsidered, experiments.FormatPct(res.NonEmptySpanFrac), res.TrainingDays)
	row := func(r experiments.Table3Row, total float64) {
		n := float64(res.JobsConsidered)
		fmt.Fprintf(w, "%-18s lower=%3d (%4.1f%%)  equal=%3d (%4.1f%%)  higher=%3d (%4.1f%%)  failures=%3d (%4.1f%%)  total-cost=%.3g\n",
			r.Label, r.LowerCost, 100*float64(r.LowerCost)/n, r.EqualCost, 100*float64(r.EqualCost)/n,
			r.HigherCost, 100*float64(r.HigherCost)/n, r.Failures, 100*float64(r.Failures)/n, total)
	}
	row(res.Random, res.RandomTotalCost)
	row(res.CB, res.CBTotalCost)
	fmt.Fprintf(w, "(paper: random 10.6%%/35.4%%/36.0%%/18.0%%, CB 34.5%%/32.1%%/19.5%%/13.9%%, total 1.7e11 vs 1.0e9)\n")
	return nil
}

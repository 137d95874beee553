// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) on the simulated SCOPE substrate and prints the
// same rows and series the paper reports; `go run ./cmd/experiments
// -scale quick` is the measured record.
//
// Usage:
//
//	experiments [-scale quick|full] [-only fig2,fig3,...,table2,table3]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"qoadvisor/internal/experiments"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or full")
	only := flag.String("only", "", "comma-separated subset (fig2..fig12, table2, table3)")
	flag.Parse()

	cfg := experiments.Quick
	if *scale == "full" {
		cfg = experiments.Full
	}
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		log.Fatalf("experiments: %v", err)
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	run := func(key string) bool { return len(want) == 0 || want[key] }

	fmt.Printf("QO-Advisor experiment reproduction (scale=%s, %d templates, seed %d)\n\n",
		*scale, cfg.NumTemplates, cfg.Seed)

	if run("fig2") {
		figure2(lab)
	}
	if run("fig3") {
		figure3(lab)
	}
	if run("fig4") {
		figure4(lab)
	}
	if run("fig5") {
		figure5(lab)
	}
	if run("fig6") {
		figure6(lab)
	}
	if run("fig7") || run("fig8") {
		figures78(lab, run)
	}
	if run("fig9") {
		figure9(lab)
	}
	if run("table2") || run("fig10") || run("fig11") || run("fig12") {
		table2(lab)
	}
	if run("table3") {
		table3(lab)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
	os.Exit(1)
}

func figure2(lab *experiments.Lab) {
	res, err := lab.Stability("latency")
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Figure 2: recurring job stability (latency) ===")
	fmt.Printf("jobs measured: %d\n", len(res.Points))
	fmt.Printf("jobs with week-0 latency improvement: %s\n", experiments.FormatPct(res.FracImproved))
	fmt.Printf("improved jobs regressing in week 1:   %s   (paper: >40%%)\n\n", experiments.FormatPct(res.FracRegressed))
}

func figure3(lab *experiments.Lab) {
	res, err := lab.Variance("latency")
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Figure 3: A/A latency variance ===")
	fmt.Printf("jobs: %d (x%d runs)\n", len(res.Points), lab.Cfg.AARuns)
	fmt.Printf("jobs above 5%% latency variance: %s   (paper: >90%%)\n", experiments.FormatPct(res.FracAbove5))
	fmt.Printf("median CV %.3f, max CV %.2f\n\n", res.MedianCV, res.MaxCV)
}

func figure4(lab *experiments.Lab) {
	res, err := lab.Stability("pnhours")
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Figure 4: recurring job stability (PNhours) ===")
	fmt.Printf("jobs measured: %d\n", len(res.Points))
	fmt.Printf("jobs with week-0 PNhours improvement: %s\n", experiments.FormatPct(res.FracImproved))
	fmt.Printf("improved jobs regressing in week 1:   %s   (paper: >40%%)\n\n", experiments.FormatPct(res.FracRegressed))
}

func figure5(lab *experiments.Lab) {
	res, err := lab.Variance("pnhours")
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Figure 5: A/A PNhours variance ===")
	fmt.Printf("jobs: %d (x%d runs)\n", len(res.Points), lab.Cfg.AARuns)
	fmt.Printf("jobs above 5%% PNhours variance: %s   (paper: <50%%)\n", experiments.FormatPct(res.FracAbove5))
	fmt.Printf("median CV %.3f, max CV %.2f\n\n", res.MedianCV, res.MaxCV)
}

func figure6(lab *experiments.Lab) {
	res, err := lab.CostVsLatency()
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Figure 6: estimated-cost delta vs latency delta ===")
	fmt.Printf("flighted jobs: %d over 5 days\n", len(res.Observations))
	fmt.Printf("Pearson %.3f, Spearman %.3f   (paper: no real correlation)\n", res.Pearson, res.Spearman)
	fmt.Printf("cost-improved jobs with latency regression: %s   (paper: >40%%)\n\n",
		experiments.FormatPct(res.FracRegressedAmongImproved))
}

func figures78(lab *experiments.Lab, run func(string) bool) {
	if run("fig7") {
		res, err := lab.IOCorrelation("read")
		if err != nil {
			fatal(err)
		}
		fmt.Println("=== Figure 7: DataRead delta vs PNhours delta ===")
		fmt.Printf("observations: %d, Pearson %.3f, trend slope %.3f   (paper: positive trend)\n\n",
			len(res.Observations), res.Pearson, res.TrendSlope)
	}
	if run("fig8") {
		res, err := lab.IOCorrelation("written")
		if err != nil {
			fatal(err)
		}
		fmt.Println("=== Figure 8: DataWritten delta vs PNhours delta ===")
		fmt.Printf("observations: %d, Pearson %.3f, trend slope %.3f   (paper: positive trend)\n\n",
			len(res.Observations), res.Pearson, res.TrendSlope)
	}
}

func figure9(lab *experiments.Lab) {
	res, err := lab.ValidationAccuracy()
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Figure 9: validation model accuracy (temporal split) ===")
	fmt.Printf("train/test samples: %d/%d, threshold %.2f\n", res.TrainSamples, res.TestSamples, res.Threshold)
	fmt.Printf("model: %s (test R^2 %.2f)\n", res.Model, res.RSquaredOnTest)
	fmt.Printf("accepted (predicted < threshold): %d\n", res.AcceptedCount)
	fmt.Printf("  of which actual < threshold: %s   (paper: 85%%)\n", experiments.FormatPct(res.FracActualBelowT))
	fmt.Printf("  of which actual < 0:         %s   (paper: 91%%)\n\n", experiments.FormatPct(res.FracActualBelow0))
}

func table2(lab *experiments.Lab) {
	res, err := lab.Aggregate(8)
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Table 2: pre-production aggregate results ===")
	fmt.Printf("training days: %d, matched jobs on evaluation day: %d of %d\n",
		res.TrainingDays, res.MatchedJobs, res.TotalJobs)
	fmt.Printf("%-10s %12s %12s\n", "Metric", "%Reduction", "(paper)")
	fmt.Printf("%-10s %12s %12s\n", "PNhours", experiments.FormatPct(res.PNHoursReduction), "-14.3%")
	fmt.Printf("%-10s %12s %12s\n", "Latency", experiments.FormatPct(res.LatencyReduction), "-8.9%")
	fmt.Printf("%-10s %12s %12s\n\n", "Vertices", experiments.FormatPct(res.VerticesReduction), "-52.8%")

	fmt.Println("=== Figure 10: per-job PNhours delta (sorted) ===")
	printSeries(res.SortedDeltas("pnhours"))
	fmt.Printf("improved: %s, best %s, worst %s   (paper: ~80%%, -50%%, +15%%)\n\n",
		experiments.FormatPct(res.FracPNImproved), experiments.FormatPct(res.BestPNDelta), experiments.FormatPct(res.WorstPNDelta))

	fmt.Println("=== Figure 11: per-job latency delta (sorted) ===")
	printSeries(res.SortedDeltas("latency"))
	fmt.Printf("improved: %s, best %s, worst %s   (paper: ~80%%, -90%%, +45%%)\n\n",
		experiments.FormatPct(res.FracLatencyImproved), experiments.FormatPct(res.BestLatencyDelta), experiments.FormatPct(res.WorstLatencyDelta))

	fmt.Println("=== Figure 12: per-job vertices delta (sorted) ===")
	printSeries(res.SortedDeltas("vertices"))
	fmt.Printf("best %s, worst %s   (paper: -60%%, +10%%)\n\n",
		experiments.FormatPct(res.BestVertexDelta), experiments.FormatPct(res.WorstVertexDelta))
}

func printSeries(xs []float64) {
	if len(xs) == 0 {
		fmt.Println("  (no matched jobs)")
		return
	}
	fmt.Print("  ")
	for i, x := range xs {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Printf("%+.2f", x)
	}
	fmt.Println()
}

func table3(lab *experiments.Lab) {
	res, err := lab.Table3(10)
	if err != nil {
		fatal(err)
	}
	fmt.Println("=== Table 3: random vs contextual-bandit rule flips ===")
	fmt.Printf("jobs: %d (non-empty span: %s; paper: ~66%%), CB trained %d days off-policy\n",
		res.JobsConsidered, experiments.FormatPct(res.NonEmptySpanFrac), res.TrainingDays)
	row := func(r experiments.Table3Row, total float64) {
		n := float64(res.JobsConsidered)
		fmt.Printf("%-18s lower=%3d (%4.1f%%)  equal=%3d (%4.1f%%)  higher=%3d (%4.1f%%)  failures=%3d (%4.1f%%)  total-cost=%.3g\n",
			r.Label, r.LowerCost, 100*float64(r.LowerCost)/n, r.EqualCost, 100*float64(r.EqualCost)/n,
			r.HigherCost, 100*float64(r.HigherCost)/n, r.Failures, 100*float64(r.Failures)/n, total)
	}
	row(res.Random, res.RandomTotalCost)
	row(res.CB, res.CBTotalCost)
	fmt.Printf("(paper: random 10.6%%/35.4%%/36.0%%/18.0%%, CB 34.5%%/32.1%%/19.5%%/13.9%%, total 1.7e11 vs 1.0e9)\n")
}

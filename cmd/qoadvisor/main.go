// Command qoadvisor runs the full QO-Advisor deployment loop on a
// synthetic recurring SCOPE workload: every simulated day, production
// executes all jobs under the current hints, and the offline pipeline
// (Feature Generation → CB Recommendation → Recompilation → Flighting →
// Validation → Hint Generation) processes the day's telemetry and uploads
// a fresh hint file to the Stats & Insight Service.
//
// Usage:
//
//	qoadvisor [-days 10] [-templates 60] [-seed 42] [-hints out.hints]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qoadvisor/internal/core"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "qoadvisor: %v\n", err)
		os.Exit(1)
	}
}

func run(argv []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("qoadvisor", flag.ExitOnError)
	days := fs.Int("days", 10, "number of simulated days")
	templates := fs.Int("templates", 60, "number of recurring job templates")
	seed := fs.Int64("seed", 42, "workload and pipeline seed")
	hintsOut := fs.String("hints", "", "write the final SIS hint file to this path")
	parallelism := fs.Int("parallelism", 0, "pipeline worker-pool size (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	fs.Parse(argv) // exits on a bad flag

	fmt.Fprintf(stdout, "QO-Advisor daily loop: %d templates, %d days, seed %d\n\n", *templates, *days, *seed)
	fmt.Fprintf(stdout, "%4s %6s %6s %7s %7s %7s %6s %8s %7s %6s\n",
		"day", "jobs", "span", "lower", "higher", "fails", "flts", "samples", "valid", "hints")

	var hintedPN, defaultPN []float64
	adv, err := core.RunLoop(rules.NewCatalog(), *seed, *templates, *days, *parallelism, func(day int, runs []core.JobRun, rep *core.DayReport) {
		for _, r := range runs {
			if r.Hinted {
				hintedPN = append(hintedPN, r.Metrics.PNHours)
			} else {
				defaultPN = append(defaultPN, r.Metrics.PNHours)
			}
		}
		fmt.Fprintf(stdout, "%4d %6d %6d %7d %7d %7d %6d %8d %7d %6d\n",
			day, rep.JobsInView, rep.JobsWithSpan, rep.LowerCost, rep.HigherCost,
			rep.CompileFails, rep.FlightsRequested, rep.ValidationSamples,
			rep.Validated, rep.HintsUploaded)
	})
	if err != nil {
		return err
	}
	store := adv.Store

	fmt.Fprintf(stdout, "\nfinal state: %d active hints, SIS version %d\n", store.Size(), store.Version())
	fmt.Fprintf(stdout, "hinted executions: %d (total PNhours %.2f), default executions: %d (total PNhours %.2f)\n",
		len(hintedPN), stats.Sum(hintedPN), len(defaultPN), stats.Sum(defaultPN))

	if *hintsOut != "" {
		f, err := os.Create(*hintsOut)
		if err != nil {
			return err
		}
		if hist := store.History(); len(hist) > 0 {
			err = sis.Serialize(f, hist[len(hist)-1])
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hint file written to %s\n", *hintsOut)
	}
	return nil
}

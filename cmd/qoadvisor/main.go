// Command qoadvisor runs the full QO-Advisor deployment loop on a
// synthetic recurring SCOPE workload: every simulated day, production
// executes all jobs under the current hints, and the offline pipeline
// (Feature Generation → CB Recommendation → Recompilation → Flighting →
// Validation → Hint Generation) processes the day's telemetry and uploads
// a fresh hint file to the Stats & Insight Service.
//
// Usage:
//
//	qoadvisor [-days 10] [-templates 60] [-seed 42] [-hints out.hints] [-model out.snap]
//
// -hints and -model are what qoserved serve reads (its -hints and -model):
// the validated hint table and the trained bandit. The pipeline's worker
// pools are sized by GOMAXPROCS, and both files are byte-identical at any
// setting of it.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"qoadvisor/internal/core"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/stats"
	"qoadvisor/internal/wal"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoadvisor: %v\n", err)
		os.Exit(1)
	}
}

// run is qoadvisor on argv; a flag error and -h print to stderr.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qoadvisor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	days := fs.Int("days", 10, "number of simulated days")
	templates := fs.Int("templates", 60, "number of recurring job templates")
	seed := fs.Int64("seed", 42, "workload and pipeline seed")
	hintsOut := fs.String("hints", "", "write the final SIS hint file to this path")
	modelOut := fs.String("model", "", "write the trained bandit's snapshot to this path")
	if err := fs.Parse(argv); err != nil {
		return err // the flag package has printed it, with the usage
	}
	if *templates < 1 {
		return fmt.Errorf("invalid value %d for flag -templates: want at least 1", *templates)
	}
	if *days < 0 {
		return fmt.Errorf("invalid value %d for flag -days: want at least 0", *days)
	}

	fmt.Fprintf(stdout, "QO-Advisor daily loop: %d templates, %d days, seed %d\n\n", *templates, *days, *seed)
	fmt.Fprintf(stdout, "%4s %6s %6s %7s %7s %7s %6s %8s %7s %6s\n",
		"day", "jobs", "span", "lower", "higher", "fails", "flts", "samples", "valid", "hints")

	var hintedPN, defaultPN []float64
	adv, err := core.RunLoop(rules.NewCatalog(), *seed, *templates, *days, func(day int, runs []core.JobRun, rep *core.DayReport) {
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

	// These files are the only handoff to qoserved serve (-hints, -model),
	// so each is replaced whole: a crash leaves the old file or the new one.
	if *hintsOut != "" {
		// Without a SIS version (-days 0) the table is empty: a header-only
		// file, which sis.Parse accepts.
		var final sis.File
		if hist := store.History(); len(hist) > 0 {
			final = hist[len(hist)-1]
		}
		var buf bytes.Buffer
		sis.Serialize(&buf, final) // a bytes.Buffer write cannot fail
		if err := wal.WriteFileAtomic(*hintsOut, buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "hint file written to %s\n", *hintsOut)
	}
	if *modelOut != "" {
		// The pipeline leaves its learner no open rank event (Train
		// releases what was rewarded, Recommend forgets what failed to
		// recompile), so the snapshot is the trained weights alone, with
		// no per-process event ID to make it differ from run to run.
		var model bytes.Buffer
		adv.CB.Service.Save(&model) // a bytes.Buffer write cannot fail
		if err := wal.WriteFileAtomic(*modelOut, model.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model written to %s\n", *modelOut)
	}
	return nil
}

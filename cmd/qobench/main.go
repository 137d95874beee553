// Command qobench is the repository's benchmark: four fixed-work
// workloads driven closed-loop at the real serving stack (or, for
// pipeline_day, at the offline pipeline), the issue's nine end-to-end
// metrics per workload — three of them gated, the six clock-based ones
// reported without a bound — and, in a traced run, a per-layer table
// measured from outside by timing calls into each layer's exported
// functions and by scraping /v2/stats. README.md in this directory is
// the manual.
//
//	go run ./cmd/qobench -seed 1                       # all four workloads
//	go run ./cmd/qobench -workload hint_hit -seed 7 -seconds 12 -trace 0
//	go run ./cmd/qobench -workload hint_hit -trace 1   # per-layer table + Chrome trace
//	go run ./cmd/qobench -smoke                        # seconds-long functional pass
//	go run ./cmd/qobench -compare a.jsonl b.jsonl      # apply BENCHMARK.json bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds must equal run_seconds in BENCHMARK.json (a test
// checks it): a bare `go run ./cmd/qobench` measures what the driver
// measures.
const defaultSeconds = 20

func main() {
	workloadFlag := flag.String("workload", "", "run one workload (hint_hit, bandit_learn, cluster_mixed, pipeline_day); empty = all four in turn")
	seed := flag.Int64("seed", 1, "input seed: the only source of randomness")
	seconds := flag.Float64("seconds", defaultSeconds, "nominal body length; scales every op count by seconds/36 (work is fixed by count, not by clock)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run at a tenth of the ops: per-layer metrics and a Chrome-trace file")
	traceOut := flag.String("trace-out", "", "with -trace 1: Chrome-trace path (default .qobench/trace-<workload>.json)")
	smoke := flag.Bool("smoke", false, "functional pass: ops/200, populations/16, two pipeline days")
	out := flag.String("out", "", "append one JSON line per workload run to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files under the bounds in ./BENCHMARK.json: qobench -compare a.jsonl b.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	var run []*spec
	if *workloadFlag == "" {
		run = specs()
	} else {
		sp, err := specByName(*workloadFlag)
		if err != nil {
			fatal(err)
		}
		run = []*spec{sp}
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, traceOut: *traceOut}
	if o.traceOut != "" && len(run) > 1 {
		fatal(fmt.Errorf("-trace-out names one file; pick one -workload"))
	}

	ctx := context.Background()
	final := finalLine{Correct: true, Metrics: map[string]wireMetric{}}
	for _, sp := range run {
		res, err := runWorkload(ctx, sp, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sp.name, err))
		}
		printResult(os.Stdout, res)
		if *out != "" {
			if err := appendRecord(*out, res, o); err != nil {
				fatal(err)
			}
		}
		final.Attempted += res.attempted
		final.Failed += res.failed
		final.Correct = final.Correct && res.correct()
		prefix := ""
		if len(run) > 1 {
			prefix = sp.name + "/"
		}
		res.metrics.wire(prefix, final.Metrics)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !final.Correct {
		os.Exit(1)
	}
}

func runWorkload(ctx context.Context, sp *spec, o options) (*result, error) {
	if sp.days > 0 {
		return runPipeline(ctx, sp, o)
	}
	return runServing(ctx, sp, o)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qobench:", err)
	os.Exit(2)
}

// correct: every output check passed and no op failed.
func (r *result) correct() bool { return len(r.fails) == 0 && r.failed == 0 }

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// record is one line of an -out file.
type record struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Seconds   float64               `json:"seconds"`
	Trace     bool                  `json:"trace"`
	Correct   bool                  `json:"correct"`
	Unstable  bool                  `json:"unstable"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func appendRecord(path string, r *result, o options) error {
	rec := record{
		Workload: r.workload, Seed: r.seed, Seconds: o.seconds, Trace: r.traced,
		Correct: r.correct(), Unstable: r.unstable, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]wireMetric{},
	}
	r.metrics.wire("", rec.Metrics)
	r.timings.wire("", rec.Metrics)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult writes one workload's human-readable block.
func printResult(w *os.File, r *result) {
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "== %s seed=%d trace=%t ops_attempted=%d ops_failed=%d failed_share=%.6f unstable=%t\n",
		r.workload, r.seed, r.traced, r.attempted, r.failed, share, r.unstable)
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-44s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if len(r.timings) > 0 {
		fmt.Fprintf(w, "  not gated (the host moves them more than any bound the issue allows):\n")
		for _, m := range r.timings {
			fmt.Fprintf(w, "  %-44s %16.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, f := range r.fails {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
	}
	if len(r.fails) == 0 {
		fmt.Fprintf(w, "  checks: ok\n")
	}
}

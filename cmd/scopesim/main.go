// Command scopesim compiles, optimizes and (optionally) executes a single
// SCOPE script on the simulator, printing the logical DAG, the physical
// plan, the rule signature and the job span — the developer's view into
// the steering surface QO-Advisor operates on.
//
// Usage:
//
//	scopesim [-run] [-span] [-flip +R123|-R045] [-tokens N] script.scope
//	scopesim -demo
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	spanpkg "qoadvisor/internal/span"
)

const demoScript = `// Demo: click analysis joined with a user dimension.
logs  = EXTRACT uid:long, page:string, dur:int, score:double FROM "store/logs_20211103.tsv";
users = EXTRACT uid:long, region:string FROM "store/users.tsv";
clicks = SELECT uid, page, dur FROM logs WHERE dur > 100 AND score >= 0.5;
joined = SELECT l.uid, l.dur, u.region
         FROM clicks AS l JOIN users AS u ON l.uid == u.uid;
agg = SELECT region, COUNT(*) AS cnt, SUM(dur) AS total
      FROM joined GROUP BY region HAVING COUNT(*) > 10
      ORDER BY total DESC TOP 100;
OUTPUT agg TO "out/agg.tsv";
`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "scopesim: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage is a command line scopesim cannot run: a bad flag or flag
// value, or neither -demo nor exactly one script.
var errUsage = errors.New("usage: scopesim [-run] [-span] [-flip +R123] [-tokens N] <script.scope> | -demo")

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("scopesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runIt := fs.Bool("run", false, "execute the plan on the cluster simulator")
	showSpan := fs.Bool("span", false, "compute and print the job span")
	flipStr := fs.String("flip", "", "apply a single rule flip, e.g. +R123 or -R045")
	tokens := fs.Int("tokens", 0, "parallelism budget (0 = default)")
	demo := fs.Bool("demo", false, "use the built-in demo script")
	if err := fs.Parse(argv); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return errUsage
	}
	if *tokens < 0 {
		return fmt.Errorf("invalid value %d for flag -tokens: want at least 0\n%w", *tokens, errUsage)
	}

	var flip rules.Flip
	if *flipStr != "" {
		var err error
		if flip, err = rules.ParseFlip(*flipStr); err != nil {
			return err
		}
	}

	var src string
	switch {
	case *demo:
		src = demoScript
	case fs.NArg() == 1:
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return errUsage
	}

	graph, err := scope.CompileScript(src)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "=== logical DAG ===")
	fmt.Fprint(stdout, graph)
	fmt.Fprintf(stdout, "template hash: %016x\n\n", graph.TemplateHash())

	cat := rules.NewCatalog()
	cfg := cat.DefaultConfig()
	if *flipStr != "" {
		r := cat.Rule(flip.RuleID)
		fmt.Fprintf(stdout, "applying flip %s (%s, %s)\n\n", flip, r.Name, r.Category)
		cfg = cfg.WithFlip(flip)
	}

	// Demo statistics: every table defaults to 1M rows unless known.
	stats := optimizer.MapStats{
		"store/logs_20211103.tsv": {Rows: 5e6, NDV: map[string]float64{"uid": 1e5, "page": 5000, "dur": 2000}},
		"store/users.tsv":         {Rows: 1e5, NDV: map[string]float64{"uid": 1e5, "region": 50}},
	}
	opts := optimizer.Options{Catalog: cat, Stats: stats, Tokens: *tokens}

	res, err := optimizer.Optimize(graph, cfg, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "=== physical plan ===")
	fmt.Fprint(stdout, res.Plan)
	fmt.Fprintf(stdout, "estimated cost: %.4g, estimated vertices: %d\n", res.EstCost, res.Plan.EstVertices)

	fired := res.Signature.Bits()
	fmt.Fprintf(stdout, "\n=== rule signature (%d rules fired) ===\n", len(fired))
	for _, id := range fired {
		r := cat.Rule(id)
		fmt.Fprintf(stdout, "  R%03d %-32s %s\n", r.ID, r.Name, r.Category)
	}

	if *showSpan {
		sp, err := spanpkg.Compute(graph, cat, opts)
		if err != nil {
			return fmt.Errorf("span: %w", err)
		}
		bits := sp.Span.Bits()
		fmt.Fprintf(stdout, "\n=== job span (%d plan-affecting rules, %d iterations) ===\n", len(bits), sp.Iterations)
		for _, id := range bits {
			r := cat.Rule(id)
			fmt.Fprintf(stdout, "  R%03d %-32s %s\n", r.ID, r.Name, r.Category)
		}
	}

	if *runIt {
		truth := &exec.Truth{JitterSeed: 7}
		m := exec.Run(res.Plan, truth, stats, exec.DefaultCluster(1), 1)
		fmt.Fprintln(stdout, "\n=== simulated execution ===")
		fmt.Fprintf(stdout, "latency:      %.1f s\n", m.LatencySec)
		fmt.Fprintf(stdout, "PNhours:      %.4f\n", m.PNHours)
		fmt.Fprintf(stdout, "vertices:     %d\n", m.Vertices)
		fmt.Fprintf(stdout, "data read:    %.1f MB\n", m.DataRead/1e6)
		fmt.Fprintf(stdout, "data written: %.1f MB\n", m.DataWritten/1e6)
		fmt.Fprintf(stdout, "max memory:   %.1f MB\n", m.MaxMemory/1e6)
	}
	return nil
}

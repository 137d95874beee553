// Command qoload is QO-Advisor's open-loop load harness. It drives the
// rank+reward steering loop against a serving cluster through a
// multi-phase traffic plan (constant, linear ramp, diurnal sinusoid,
// flash crowd) with a heavy-tailed Zipf template mix, measures every
// op's latency from its *scheduled* send time — so server stalls widen
// the measured tail instead of silently thinning the arrival stream
// (coordinated omission) — and writes a BENCH_load.json report with
// p50/p90/p99/p999, goodput, and the typed-error breakdown per phase.
//
// After the run it scrapes /v2/stats from every endpoint and embeds the
// fleet-merged view (internal/fleet), so the report shows both what the
// harness observed and what the cluster accounted.
//
// Usage:
//
//	qoload -cluster http://h1:8080,http://h2:8081 \
//	       [-phases "steady:30s@400,ramp:60s@100..2000,crowd:30s@200!1500"] \
//	       [-seed 1] [-out BENCH_load.json] [-fleet-check]
//
//	qoload -selfhost [-stall 600ms] [-incident-dir DIR] [...]
//
// The rest of the workload is fixed: 16 jobs per op, at most 64 ops in
// flight, a population of 64 synthetic templates drawn with Zipf skew
// 1.3, every ranked job rewarded, and a load.Timeout (30 s) bound on
// each op and each request.
//
// -selfhost spins a sync-mode WAL primary plus one tailing follower on
// loopback listeners and aims the run at that two-node cluster — the CI
// load-smoke path, and the only mode where -stall works: it appends an
// arm to the report that injects a one-shot WAL fsync stall mid-run,
// whose open-loop p99 must carry the stall.
//
// -incident-dir (selfhost only) enables the primary's incident engine,
// so a -stall run also exercises the burn→capture path: the stalled
// fsync burns the reward-latency SLO, the engine captures a diagnostic
// bundle into the directory, and the report gains an incidents block
// (bundle count, last reason, retained-trace count, longest retained
// trace) that CI's incident-smoke step asserts on.
//
// -fleet-check exits nonzero unless the run ranked jobs (goodput > 0)
// and the fleet-merged histogram count equals the sum of the per-node
// counts — the merge invariant CI pins on every push.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"qoadvisor/internal/api/client"
	"qoadvisor/internal/fleet"
	"qoadvisor/internal/load"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qoload:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage is a command line whose flags do not parse.
var errUsage = errors.New("usage")

// run is qoload on argv; a flag error and -h print to stderr, and -h
// returns flag.ErrHelp.
func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qoload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	clusterFlag := fs.String("cluster", "", "comma-separated endpoint list to load (primary first is conventional, not required)")
	selfhost := fs.Bool("selfhost", false, "spin an in-process sync-WAL primary + follower pair on loopback and load that")
	stall := fs.Duration("stall", 0, "with -selfhost: run an extra open-loop arm with a one-shot WAL fsync stall of this length injected mid-run")
	incidentDir := fs.String("incident-dir", "", "with -selfhost: enable incident capture on the primary, writing diagnostic bundles to this directory")
	phasesFlag := fs.String("phases", "steady:10s@200,ramp:10s@50..500,crowd:10s@100!800",
		"load plan: name:dur@rate phases; rate forms: 500 (const), 100..2000 (ramp), 200~800 (diurnal), 100!2000 (flash)")
	seed := fs.Int64("seed", 1, "workload seed (template population + mix)")
	out := fs.String("out", "BENCH_load.json", "report output path (empty = stdout only)")
	fleetCheck := fs.Bool("fleet-check", false, "exit nonzero unless goodput > 0 and fleet count == Σ node counts")
	if err := fs.Parse(argv); errors.Is(err, flag.ErrHelp) {
		return err
	} else if err != nil {
		return errUsage
	}

	phases, err := load.ParsePhases(*phasesFlag)
	if err != nil {
		return err
	}
	switch {
	case !*selfhost && *clusterFlag == "":
		return fmt.Errorf("one of -cluster or -selfhost is required")
	case *stall > 0 && !*selfhost:
		return fmt.Errorf("-stall requires -selfhost (it injects faults into the in-process primary's WAL)")
	case *incidentDir != "" && !*selfhost:
		return fmt.Errorf("-incident-dir requires -selfhost (it configures the in-process primary)")
	}

	var endpoints []string
	var primaryFS *load.StallFS
	if *selfhost {
		var cleanup func()
		endpoints, primaryFS, cleanup, err = startSelfhost(stderr, *seed, *incidentDir)
		if err != nil {
			return err
		}
		defer cleanup()
	} else {
		endpoints = strings.Split(*clusterFlag, ",")
		for i := range endpoints {
			endpoints[i] = strings.TrimSpace(endpoints[i])
		}
	}

	target, err := client.NewCluster(endpoints, client.WithTimeout(load.Timeout))
	if err != nil {
		return err
	}
	cfg := load.Config{Target: target, Seed: *seed}
	runner := load.NewRunner(cfg)

	report := load.Report{Target: strings.Join(endpoints, ","), Seed: *seed}
	ctx := context.Background()
	var totalRanked int64
	for _, p := range phases {
		fmt.Fprintf(stderr, "phase %-10s %-8s %v @ %.0f", p.Name, p.Shape, p.Duration, p.Low)
		if p.Shape != load.ShapeConstant {
			fmt.Fprintf(stderr, "→%.0f", p.High)
		}
		fmt.Fprintln(stderr, " ops/s")
		res := runner.RunPhase(ctx, p)
		pr := load.Summarize(res)
		report.Phases = append(report.Phases, pr)
		totalRanked += res.RankedJobs
		fmt.Fprintf(stderr, "  %d/%d ops, %d jobs ranked, goodput %.0f jobs/s, p50 %.2fms p99 %.2fms p999 %.2fms, errors %v\n",
			pr.CompletedOps, pr.OfferedOps, pr.RankedJobs, pr.GoodputJobsPerSec, pr.P50Ms, pr.P99Ms, pr.P999Ms, pr.Errors)
	}

	if *stall > 0 {
		report.Stall = runStallArm(ctx, stderr, cfg, endpoints[0], primaryFS, *stall)
	}

	snap := fleet.Scrape(ctx, endpoints, client.WithTimeout(load.Timeout))
	snap.Render(stderr)
	report.Fleet = load.FleetReportFrom(snap)

	if *incidentDir != "" {
		report.Incidents = scrapeIncidents(ctx, stderr, endpoints[0])
		fmt.Fprintf(stderr, "incidents: %d bundles (last %s %s), %d retained traces, max %.1fms\n",
			report.Incidents.Bundles, report.Incidents.LastReason, report.Incidents.LastID,
			report.Incidents.RetainedTraces, report.Incidents.MaxTraceMs)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "\nreport: %s\n", *out)
	} else {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}

	if *fleetCheck {
		switch {
		case totalRanked == 0:
			return fmt.Errorf("fleet-check: zero jobs ranked")
		case report.Fleet.RankFleetCount == 0:
			return fmt.Errorf("fleet-check: fleet-merged rank histogram is empty")
		case report.Fleet.RankFleetCount != report.Fleet.RankNodeSum:
			return fmt.Errorf("fleet-check: fleet count %d != Σ node counts %d",
				report.Fleet.RankFleetCount, report.Fleet.RankNodeSum)
		}
		fmt.Fprintf(stderr, "fleet-check: ok (%d ranks merged across %d nodes)\n",
			report.Fleet.RankFleetCount, snap.Reachable())
	}
	return nil
}

// scrapeIncidents condenses the primary's /v2/incidents and /v2/traces
// answers into the report's incidents block. Best-effort: a failed
// scrape leaves the corresponding fields zero instead of failing the
// run — the CI smoke's assertions then fail with the report in hand.
func scrapeIncidents(ctx context.Context, stderr io.Writer, primaryURL string) *load.IncidentReport {
	cl := client.New(primaryURL, client.WithTimeout(load.Timeout))
	ir := &load.IncidentReport{}
	if inc, err := cl.Incidents(ctx); err != nil {
		fmt.Fprintf(stderr, "qoload: incidents scrape failed: %v\n", err)
	} else {
		ir.Bundles = len(inc.Incidents)
		if len(inc.Incidents) > 0 {
			ir.LastID = inc.Incidents[0].ID
			ir.LastReason = inc.Incidents[0].Reason
		}
	}
	if tr, err := cl.Traces(ctx, client.TracesOptions{}); err != nil {
		fmt.Fprintf(stderr, "qoload: traces scrape failed: %v\n", err)
	} else {
		ir.RetainedTraces = len(tr.Traces)
		for _, t := range tr.Traces {
			if ms := float64(t.DurMicros) / 1e3; ms > ir.MaxTraceMs {
				ir.MaxTraceMs = ms
			}
		}
	}
	return ir
}

// startSelfhost spins the in-process two-node cluster: a sync-mode
// WAL primary and one tailing follower, each on its own loopback
// listener. Returns the endpoints (primary first), the FS the primary's
// WAL writes through, where a stall is injected, and a cleanup closing
// everything in order.
// A non-empty incidentDir enables incident capture on the primary
// with stock thresholds, so an injected stall exercises the real
// burn→capture path end to end.
func startSelfhost(stderr io.Writer, seed int64, incidentDir string) ([]string, *load.StallFS, func(), error) {
	// undo holds the teardown of every part started so far; cleanup
	// runs it newest first, and a failed start runs it before
	// returning.
	var undo []func()
	cleanup := func() {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
	}
	fail := func(err error) ([]string, *load.StallFS, func(), error) {
		cleanup()
		return nil, nil, nil, err
	}

	dir, err := os.MkdirTemp("", "qoload-wal-*")
	if err != nil {
		return fail(err)
	}
	undo = append(undo, func() { os.RemoveAll(dir) })
	fsys := &load.StallFS{FS: wal.OS{}}
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, FS: fsys})
	if err != nil {
		return fail(err)
	}
	undo = append(undo, func() { j.Close() })
	if incidentDir != "" {
		if err := os.MkdirAll(incidentDir, 0o755); err != nil {
			return fail(fmt.Errorf("incident dir: %w", err))
		}
	}
	primary := serve.New(serve.Config{Seed: seed, WAL: j, IncidentDir: incidentDir})
	undo = append(undo, primary.Close)
	pURL, pStop, err := listenAndServe(primary)
	if err != nil {
		return fail(err)
	}
	undo = append(undo, pStop)

	follower, err := replicate.Start(replicate.Config{Primary: pURL, Seed: seed})
	if err != nil {
		return fail(err)
	}
	undo = append(undo, follower.Close)
	fURL, fStop, err := listenAndServe(follower)
	if err != nil {
		return fail(err)
	}
	undo = append(undo, fStop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := follower.WaitCaughtUp(ctx, 10*time.Second); err != nil {
		fmt.Fprintf(stderr, "qoload: follower slow to catch up: %v (continuing)\n", err)
	}

	fmt.Fprintf(stderr, "selfhost: primary %s (sync WAL %s), follower %s\n", pURL, dir, fURL)
	return []string{pURL, fURL}, fsys, cleanup, nil
}

// listenAndServe serves handler on a fresh loopback port, returning
// its base URL and a stop closure.
func listenAndServe(handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// runStallArm runs a constant open-loop workload against the primary
// with a one-shot fsync stall armed mid-run: the ops scheduled during
// the stall queue behind the frozen commit, so the stall lands in p99.
func runStallArm(ctx context.Context, stderr io.Writer, cfg load.Config, primaryURL string, fsys *load.StallFS, stall time.Duration) *load.StallReport {
	fmt.Fprintf(stderr, "stall arm: one-shot %v fsync stall, open-loop\n", stall)
	cfg.Target = client.New(primaryURL, client.WithTimeout(load.Timeout))
	cfg.Batch = 2

	load.ArmStall(fsys, 300*time.Millisecond, stall)
	res := load.NewRunner(cfg).RunPhase(ctx, load.Phase{
		Name: "stall-open", Shape: load.ShapeConstant, Duration: 4 * stall / 2, Low: 200,
	})
	fsys.SetDelay(nil)

	or := load.Summarize(res)
	fmt.Fprintf(stderr, "  open-loop p99 %8.2fms over %d ops (stall visible)\n", or.P99Ms, or.CompletedOps)
	return &load.StallReport{StallMs: float64(stall) / float64(time.Millisecond), OpenLoop: or}
}

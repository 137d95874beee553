// Command qoserved runs QO-Advisor's online steering service and its
// operator tooling. It is one program per subcommand, each with
// its own flag set holding exactly the flags that mode reads — a flag
// another mode owns is "flag provided but not defined" here:
//
//	qoserved serve [flags]                          # primary: rank, reward, journal
//	qoserved follow <primary> [flags]               # read replica tailing a primary
//	qoserved check <url>                            # /v2/healthz + /v2/stats of one node
//	qoserved cluster <url,url,...>                  # fleet view, merged percentiles
//	qoserved push-hints <url> -hints f.hints        # rollover upload
//	qoserved replay <out> -wal-dir dir [-model snap]    # offline model rebuild
//	qoserved audit records  -wal-dir dir [-event e] [-template-hash h]
//	qoserved audit decision -wal-dir dir -event e        # decision trace
//	qoserved audit template -wal-dir dir -template-hash h  # steering lineage
//	qoserved audit asof     -wal-dir dir [-lsn n] [-audit-out m.snap]
//	qoserved version
//
// `qoserved <subcommand> -h` lists that mode's flags with defaults;
// testdata/flags.golden pins all of them.
//
// serve is an HTTP Rank/Reward server backed by a published hint table
// and an asynchronous reward-ingestion pipeline. It does not run the
// offline pipeline: qoadvisor does, and hands over two files — a SIS
// hint table (qoadvisor -hints) and the trained bandit (qoadvisor
// -model). Bootstrapping is therefore two commands:
//
//	qoadvisor -days 5 -templates 24 -hints h -model m
//	qoserved serve -hints h -model m
//
// serve loads -model at startup as recovered state (a missing file is a
// fresh learner) and installs -hints as one journaled rollover that
// replaces the recovered table; without -hints the recovered table
// stands. Cached hints answer steering queries for known templates, the
// bandit ranks everything else, and /v2/reward telemetry trains the
// model continuously off the request path. Exploration draws from -seed.
// On SIGINT/SIGTERM the server drains the reward queue and, when -model
// is set, persists the learner so a restart resumes from the learned
// state.
//
// With -wal-dir set serve runs durably: every rank decision, accepted
// reward batch, and hint-table rollover is journaled to a segmented
// write-ahead log (group-commit fsync per -wal-sync), a checkpoint
// ticker (-snapshot-every) snapshots the model with its covering WAL
// offset and truncates sealed segments, and startup replays the journal
// suffix above the snapshot watermark — so a crash loses at most the
// last unsynced group-commit window instead of every reward since boot.
// A WAL-backed server is also a replication primary: followers
// bootstrap from GET /v2/wal/snapshot and tail GET /v2/wal.
//
// follow runs a read-scaled follower instead: it bootstraps a replica
// of the primary's learner and hint table, tails the primary's WAL to
// stay current, serves /v2/rank (greedy, deterministic), /v2/healthz
// and /v2/stats locally, and rejects writes with a structured
// not_primary error carrying the primary's URL. If the primary compacts
// past the follower's position, the follower re-bootstraps on its own.
// -train-every and -max-log are replay values, not tuning: a follower,
// replay and audit asof must be given the primary's.
//
// Observability: every node serves Prometheus text-format metrics at
// GET /metrics and its build identity at GET /v2/version (offline:
// qoserved version). -pprof mounts net/http/pprof on a separate
// listener. Every request records its stage timeline into one flight
// recorder, which retains the traces of slow or errored requests in a
// bounded in-memory ring served at GET /v2/traces (-trace-retain-ms
// tunes the slow threshold); -trace-out additionally head-samples 1 in
// -trace-sample requests into the ring and writes them to a file as
// Chrome-trace JSON. With -incident-dir set, the incident engine
// watches the SLO burn rate, drift quarantines and journal fail-stops,
// and captures a diagnostic bundle (profiles, histograms, retained
// traces, full stats) when one fires; bundles are listed at
// GET /v2/incidents.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/fleet"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// logg is the process-wide leveled logger, writing key=value lines to
// stderr. The serving modes set minLevel from -log-level; the one-shot
// modes log only their failure, which every level prints.
var (
	minLevel slog.LevelVar // zero = info
	logg     = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &minLevel}))
)

// parseLevel parses the -log-level form ("debug", "info", "warn", "error").
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}

// mode is one subcommand: its own flags, its own required inputs, its
// own run loop.
type mode interface {
	// register binds the flags this mode reads — and no others — to fs.
	register(fs *flag.FlagSet)
	// validate takes the operand and checks the mode's required inputs
	// without touching the network or the disk.
	validate(operand string) error
	run() error
}

// commands is the whole operator surface. A mode takes at most one
// operand, written before its flags.
var commands = []struct {
	name, operand, summary string
	new                    func() mode
}{
	{"serve", "", "run the steering service: rank, reward, journal, replication primary", func() mode { return new(serveMode) }},
	{"follow", "<primary>", "run a read replica that bootstraps from and tails the primary at this base URL", func() mode { return new(followMode) }},
	{"check", "<url>", "probe one running node's /v2/healthz and /v2/stats, print, exit", func() mode { return new(checkMode) }},
	{"cluster", "<url,url,...>", "scrape /v2/stats from every node, print per-node rows and fleet-merged percentiles", func() mode { return new(clusterMode) }},
	{"push-hints", "<url>", "upload the -hints file to a running primary as a rollover", func() mode { return new(pushHintsMode) }},
	{"replay", "<out>", "rebuild a model offline from -wal-dir (and an optional -model snapshot), write it to this path", func() mode { return new(replayMode) }},
	{"audit", "<records|decision|template|asof>", "query the journal in -wal-dir offline, print", func() mode { return new(auditMode) }},
	{"version", "", "print build information", func() mode { return versionMode{} }},
}

func main() {
	m, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // parse has already said why, with the usage
	}
	if err := m.run(); err != nil {
		logg.Error(os.Args[1]+" failed", "err", err)
		os.Exit(1)
	}
}

// parse builds the mode argv names, without running it. Every failure
// is a usage error written to stderr: the flag package reports unknown
// flags — a flag another mode owns is unknown in this one — and the
// mode's validate reports missing required inputs.
func parse(argv []string, stderr io.Writer) (mode, error) {
	if len(argv) == 0 {
		argv = []string{""} // no subcommand is the unknown subcommand ""
	}
	for _, c := range commands {
		if argv[0] != c.name {
			continue
		}
		m := c.new()
		fs := flag.NewFlagSet("qoserved "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		fs.Usage = func() {
			fmt.Fprintf(stderr, "usage: qoserved %s [flags]\n  %s\n", strings.TrimSpace(c.name+" "+c.operand), c.summary)
			fs.PrintDefaults()
		}
		m.register(fs)
		args, operand := argv[1:], ""
		if c.operand != "" && len(args) > 0 && !strings.HasPrefix(args[0], "-") {
			operand, args = args[0], args[1:]
		}
		err := fs.Parse(args)
		if err != nil {
			return nil, err // the flag package has printed it
		}
		switch {
		case c.operand != "" && operand == "":
			err = fmt.Errorf("missing %s", c.operand)
		case fs.NArg() > 0:
			err = fmt.Errorf("unexpected argument %q (the operand comes before the flags)", fs.Arg(0))
		default:
			err = m.validate(operand)
		}
		if err != nil {
			fmt.Fprintf(stderr, "qoserved %s: %v\n", c.name, err)
			fs.Usage()
			return nil, err
		}
		return m, nil
	}
	fmt.Fprintln(stderr, "usage: qoserved <subcommand> [operand] [flags]    (qoserved <subcommand> -h lists its flags)")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-46s %s\n", strings.TrimSpace(c.name+" "+c.operand), c.summary)
	}
	if argv[0] == "-h" || argv[0] == "-help" || argv[0] == "--help" {
		return nil, flag.ErrHelp
	}
	err := fmt.Errorf("unknown subcommand %q", argv[0])
	fmt.Fprintf(stderr, "qoserved: %v\n", err)
	return nil, err
}

// replayFlags are the values a journal replay must share with the run
// that wrote the journal: they place the training and eviction
// boundaries, so a follower, replay or audit asof given other values
// rebuilds a different model. They are not tuning. The primary's -seed
// is not among them: replay applies journaled decisions and never draws
// from the exploration rng, and a snapshot's bytes do not contain it.
type replayFlags struct {
	trainEvery, maxLog int
}

func (r *replayFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&r.trainEvery, "train-every", 0, "train after this many applied rewards (0 = default)")
	fs.IntVar(&r.maxLog, "max-log", 0, "cap on retained rank events (0 = default, negative = unbounded)")
}

// nodeFlags are what every serving node reads, primary or follower:
// where to listen and how to be observed.
type nodeFlags struct {
	addr, logLevel, pprofAddr, traceOut string
	level                               slog.Level // -log-level, parsed by validate
	traceSample, traceRetainMS          int
}

func (n *nodeFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&n.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&n.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.StringVar(&n.pprofAddr, "pprof", "", "serve net/http/pprof on a separate listener at this address (empty = disabled)")
	fs.StringVar(&n.traceOut, "trace-out", "", "write Chrome-trace JSON for sampled requests to this file (load in chrome://tracing or ui.perfetto.dev)")
	fs.IntVar(&n.traceSample, "trace-sample", 100, "with -trace-out, trace 1 in N requests")
	fs.IntVar(&n.traceRetainMS, "trace-retain-ms", 0, "retain traces of requests slower than this many ms in the in-memory ring served at /v2/traces (0 = default 250ms)")
}

func (n *nodeFlags) validate() (err error) {
	if n.traceRetainMS < 0 {
		return fmt.Errorf("-trace-retain-ms must not be negative (got %d)", n.traceRetainMS)
	}
	n.level, err = parseLevel(n.logLevel)
	return err
}

// observe applies the node flags: the log level, the pprof listener (its
// own, so profile endpoints are never exposed on the serving address)
// and the flight recorder with its optional -trace-out export.
func (n *nodeFlags) observe() (*obs.FlightRecorder, error) {
	minLevel.Set(n.level)
	if n.pprofAddr != "" {
		// net/http/pprof registers on http.DefaultServeMux, which only
		// this listener serves: the steering handlers have their own.
		go func() {
			if err := http.ListenAndServe(n.pprofAddr, nil); err != nil {
				logg.Error("pprof listener failed", "addr", n.pprofAddr, "err", err)
			}
		}()
		logg.Info("pprof listening", "addr", n.pprofAddr)
	}
	cfg := obs.FlightConfig{Threshold: time.Duration(n.traceRetainMS) * time.Millisecond}
	if n.traceOut != "" {
		tf, err := os.Create(n.traceOut)
		if err != nil {
			return nil, fmt.Errorf("creating trace output: %w", err)
		}
		cfg.Export, cfg.SampleEvery = tf, n.traceSample
		logg.Info("request tracing enabled", "path", n.traceOut, "sampleEvery", n.traceSample)
	}
	return serve.NewFlightRecorder(cfg), nil
}

// closeFlight finishes and closes the -trace-out export stream;
// without the close the emitted JSON array is unterminated.
func closeFlight(r *obs.FlightRecorder) {
	if err := r.Close(); err != nil {
		logg.Warn("closing trace output", "err", err)
	}
}

// serveMode is the primary.
type serveMode struct {
	nodeFlags
	replayFlags
	seed                          int64
	hints, model, walDir, walSync string
	walMode                       wal.Mode // -wal-sync, parsed by validate
	walSegMB                      int64
	snapshotEvery                 time.Duration
	uniform, drift                bool
	// The -drift-* and -incident-* flags bind straight into the configs
	// they tune; a zero field is that package's default.
	driftCfg  drift.Config
	incidents serve.IncidentConfig
}

func (m *serveMode) register(fs *flag.FlagSet) {
	m.nodeFlags.register(fs)
	m.replayFlags.register(fs)
	fs.Int64Var(&m.seed, "seed", 42, "exploration seed")
	fs.StringVar(&m.hints, "hints", "", "SIS hint file (qoadvisor -hints) to install at startup, replacing the recovered hint table")
	fs.StringVar(&m.model, "model", "", "model snapshot path: loaded at startup if present, written on shutdown and POST /v2/model/snapshot")
	fs.BoolVar(&m.uniform, "uniform", false, "rank with the uniform-at-random logging policy")
	fs.StringVar(&m.walDir, "wal-dir", "", "durable reward journal directory (empty = in-memory only)")
	fs.StringVar(&m.walSync, "wal-sync", "async", "journal durability mode: sync (fsync before ack), async (group-commit window), off (never fsync)")
	fs.Int64Var(&m.walSegMB, "wal-segment-mb", 64, "journal segment size in MiB before rolling to a new file")
	fs.DurationVar(&m.snapshotEvery, "snapshot-every", 5*time.Minute, "checkpoint interval: snapshot the model and truncate covered journal segments (0 = only on shutdown)")
	fs.BoolVar(&m.drift, "drift", false, "detect per-template reward drift and auto-quarantine regressed hints (journaled)")
	fs.Float64Var(&m.driftCfg.Threshold, "drift-threshold", 0, "with -drift: baseline standard deviations below baseline mean that count as degraded (0 = default 4)")
	fs.IntVar(&m.driftCfg.QuarantineAfter, "drift-quarantine-after", 0, "with -drift: consecutive degraded observations before quarantine (0 = default 16)")
	fs.IntVar(&m.driftCfg.RestoreAfter, "drift-restore-after", 0, "with -drift: consecutive recovered probation observations before full restore (0 = default 32)")
	fs.IntVar(&m.driftCfg.MaxTemplates, "drift-max-templates", 0, "with -drift: cap on exactly-tracked templates, the rest stay in the sketch (0 = default 4096)")
	fs.StringVar(&m.incidents.Dir, "incident-dir", "", "capture diagnostic bundles (profiles, histograms, slow traces, stats) into this directory when an incident trigger fires (empty = disabled)")
	fs.Float64Var(&m.incidents.BurnThreshold, "incident-burn-threshold", 0, "with -incident-dir: shortest-window SLO burn rate that triggers a capture (0 = default 2.0)")
	fs.DurationVar(&m.incidents.Cooldown, "incident-cooldown", 0, "with -incident-dir: minimum spacing between captures (0 = default 5m)")
}

func (m *serveMode) validate(string) (err error) {
	if m.walMode, err = wal.ParseMode(m.walSync); err != nil {
		return fmt.Errorf("bad -wal-sync: %w", err)
	}
	return m.nodeFlags.validate()
}

func (m *serveMode) run() error {
	flight, err := m.observe()
	if err != nil {
		return err
	}
	cat := rules.NewCatalog()

	var journal *wal.WAL
	if m.walDir != "" {
		journal, err = wal.Open(wal.Options{Dir: m.walDir, Mode: m.walMode, SegmentBytes: m.walSegMB << 20})
		if err != nil {
			return fmt.Errorf("opening WAL %s: %w", m.walDir, err)
		}
		if torn, reason := journal.TailDamage(); torn > 0 {
			// Open already cut the damage away; tell the operator that a
			// crash discarded records past the last durable group commit.
			logg.Warn("journal tail damaged (crash artifact)", "truncatedBytes", torn, "reason", reason)
		}
	}

	var driftCfg *drift.Config // nil = detection off; enforcement is always on
	if m.drift {
		driftCfg = &m.driftCfg
	}
	// serve.Open recovers the model from -model plus the journal suffix
	// (or starts a fresh learner), restores the journaled quarantine and
	// hint tables and, with a WAL, takes the initial checkpoint.
	srv, rec, err := serve.Open(serve.Config{
		Catalog:      cat,
		Seed:         m.seed,
		Uniform:      m.uniform,
		TrainEvery:   m.trainEvery,
		MaxLogEvents: m.maxLog,
		SnapshotPath: m.model,
		WAL:          journal,
		Flight:       flight,
		Incidents:    m.incidents, // disabled while its Dir is empty
		Drift:        driftCfg,
	})
	if err != nil {
		return fmt.Errorf("opening primary: %w", err)
	}
	model := srv.SnapshotPath()
	if rec.Recovered() {
		logg.Info("recovered model", "path", model,
			"snapshot", rec.SnapshotLoaded, "watermarkLsn", rec.FromLSN,
			"records", rec.Journal.Records, "ranks", rec.Replay.Ranks,
			"rewards", rec.Replay.Rewards, "trained", rec.Replay.TrainedEvents,
			"hintRollovers", rec.HintRollovers, "hints", len(rec.Hints), "hintGeneration", rec.HintGen,
			"quarantineRecords", rec.QuarantineRecords, "quarantined", len(rec.Quarantine))
	}
	if m.incidents.Dir != "" {
		logg.Info("incident capture enabled", "dir", m.incidents.Dir)
	}
	// A -hints file is a whole SIS table (the pipeline merges before each
	// upload), so it replaces the recovered one as one journaled rollover,
	// exactly as push-hints would. Without it the recovered table stands.
	if m.hints != "" {
		hints, err := loadHints(m.hints, cat)
		if err != nil {
			return err
		}
		gen, err := srv.InstallHints(hints)
		if err != nil {
			return fmt.Errorf("installing hints: %w", err)
		}
		logg.Info("hint cache installed", "hints", srv.Cache().Size(), "generation", gen)
	}

	// Periodic checkpoints: persist the model off the SIGTERM path so a
	// crash loses at most one interval of training (and, with a WAL,
	// nothing that was journaled durably), and compact covered journal
	// segments. The ticker stops with the serve context.
	err = serveUntilSignal(m.addr, srv, func(ctx context.Context) {
		logg.Info("qoserved listening", "addr", m.addr)
		if m.snapshotEvery <= 0 || model == "" {
			return
		}
		t := time.NewTicker(m.snapshotEvery)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if info, err := srv.Checkpoint(model); err != nil {
					logg.Error("checkpoint failed", "err", err)
				} else {
					logg.Info("checkpoint", "bytes", info.Bytes, "walOffset", info.LSN,
						"segmentsCompacted", info.SegmentsRemoved, "took", info.Duration.Round(time.Microsecond))
				}
			}
		}
	})
	if err != nil {
		return err
	}

	// Graceful teardown: drain pending rewards into the model, then
	// persist it for the next start.
	srv.Close()
	if model != "" {
		info, err := srv.Checkpoint(model)
		if err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		logg.Info("model persisted", "path", model, "bytes", info.Bytes, "walOffset", info.LSN)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			logg.Error("closing WAL", "err", err)
		}
	}
	closeFlight(flight)
	logg.Info("qoserved stopped")
	return nil
}

// loadHints reads a SIS hint file and validates it against the catalog.
func loadHints(path string, cat *rules.Catalog) ([]sis.Hint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening hints: %w", err)
	}
	file, err := sis.Parse(f)
	f.Close()
	if err == nil {
		err = sis.Validate(file, cat)
	}
	if err != nil {
		return nil, fmt.Errorf("hints %s: %w", path, err)
	}
	return file.Hints, nil
}

// followMode is the read replica: bootstrap from the primary, tail its
// WAL, serve reads locally until SIGINT/SIGTERM. A follower's state IS
// the primary's snapshot and journal, so the primary's flags (-hints,
// -model, -wal-*, -drift*, -incident-*, ...) do not exist here.
type followMode struct {
	nodeFlags
	replayFlags
	primary string
}

func (m *followMode) register(fs *flag.FlagSet) {
	m.nodeFlags.register(fs)
	m.replayFlags.register(fs)
}

func (m *followMode) validate(primary string) error {
	m.primary = primary
	return m.nodeFlags.validate()
}

// run needs no babysitting loop: the replicate.Follower re-bootstraps
// itself if the primary compacts past its position.
func (m *followMode) run() error {
	flight, err := m.observe()
	if err != nil {
		return err
	}
	defer closeFlight(flight)
	f, err := replicate.Start(replicate.Config{
		Primary:      m.primary,
		TrainEvery:   m.trainEvery,
		MaxLogEvents: m.maxLog,
		Logger:       logg,
		Flight:       flight,
	})
	if err != nil {
		return err
	}
	if err := serveUntilSignal(m.addr, f, func(context.Context) {
		logg.Info("qoserved following", "primary", m.primary, "addr", m.addr)
	}); err != nil {
		return err
	}
	st := f.Stats()
	logg.Info("follower stopping", "appliedLsn", st.AppliedLSN, "lag", st.LagRecords,
		"recordsApplied", st.RecordsApplied, "reconnects", st.Reconnects, "resyncs", st.Resyncs)
	f.Close()
	return nil
}

// serveUntilSignal runs one HTTP server with the shared production
// timeouts until SIGINT/SIGTERM, then shuts it down gracefully —
// primary and follower modes serve through this one scaffold so their
// timeout and shutdown behavior cannot drift apart. beside runs on its
// own goroutine while the server serves, with a context that cancels at
// the signal (the checkpoint ticker lives there), and must return once
// it does. ListenAndServe returns as soon as Shutdown begins while
// in-flight requests keep running until Shutdown itself returns, so
// this waits for the full drain: when it returns, beside has returned
// and no handler is running.
func serveUntilSignal(addr string, handler http.Handler, beside func(ctx context.Context)) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		beside(ctx)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	err := httpSrv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	stop() // a listen failure, too, must release the goroutine
	<-done
	return err
}

// noFlags is embedded by the modes whose operand is their whole input.
type noFlags struct{}

func (noFlags) register(*flag.FlagSet) {}

type versionMode struct{ noFlags }

func (versionMode) validate(string) error { return nil }

func (versionMode) run() error {
	b := obs.Build()
	fmt.Printf("qoserved %s (%s, revision %s, %s)\n", b.Version, b.Module, revision(b.Revision, b.Modified), b.GoVersion)
	return nil
}

// revision renders a VCS revision the way every version line does.
func revision(rev string, modified bool) string {
	if rev == "" {
		rev = "unknown"
	}
	if modified {
		rev += "-dirty"
	}
	return rev
}

// clusterMode scrapes /v2/stats from every listed endpoint and
// renders the fleet view: per-node rows (role, lag, quarantine state)
// plus the fleet-merged per-route and per-stage percentiles, computed
// by merging the raw histogram buckets each node ships — not by
// averaging per-node percentiles, which would be wrong. Like check it
// is a gate: any unreachable node fails the exit code (its row still
// prints with the scrape error).
type clusterMode struct {
	noFlags
	endpoints []string
}

func (m *clusterMode) validate(list string) error {
	m.endpoints = strings.FieldsFunc(list, func(r rune) bool { return r == ',' })
	if len(m.endpoints) == 0 {
		return fmt.Errorf("no endpoints in %q", list)
	}
	return nil
}

func (m *clusterMode) run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap := fleet.Scrape(ctx, m.endpoints, client.WithTimeout(5*time.Second))
	snap.Render(os.Stdout)
	if n := snap.Reachable(); n < len(m.endpoints) {
		return fmt.Errorf("%d of %d nodes unreachable", len(m.endpoints)-n, len(m.endpoints))
	}
	return nil
}

// checkMode probes a running server through the typed client: healthz
// first (cheap, gateable), then the full stats payload with per-route
// latency metrics.
type checkMode struct {
	noFlags
	url string
}

func (m *checkMode) validate(url string) error {
	m.url = url
	return nil
}

func (m *checkMode) run() error {
	cl := client.New(m.url, client.WithTimeout(5*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A degraded node still decodes its health body — print the
	// diagnosis, but keep the error for the exit code: check is a
	// gate, and a stale follower must fail it.
	health, healthErr := cl.Health(ctx)
	if healthErr != nil && health.Status == "" {
		return healthErr
	}
	fmt.Printf("health:     %s (generation %d, %d hints, queue %d/%d, up %.1fs)\n",
		health.Status, health.Generation, health.Hints,
		health.QueueDepth, health.QueueCap, health.UptimeSec)

	stats, err := cl.Stats(ctx)
	if err != nil {
		return err
	}
	if v := stats.Version; v != nil {
		fmt.Printf("version:    %s (revision %s, %s)\n", v.Version, revision(v.Revision, v.Modified), v.GoVersion)
	}
	fmt.Printf("serving:    %d ranks (%d hint hits, %d bandit, %d noops), event log %d\n",
		stats.RankRequests, stats.HintHits, stats.BanditRanks, stats.NoOps, stats.BanditLog)
	fmt.Printf("ingest:     %d enqueued, %d applied, %d dropped, %d unknown, %d train runs\n",
		stats.Ingest.Enqueued, stats.Ingest.Applied, stats.Ingest.Dropped,
		stats.Ingest.UnknownEvents, stats.Ingest.TrainRuns)
	if stats.WAL != nil {
		w := stats.WAL
		fmt.Printf("wal:        mode=%s lsn %d..%d (synced %d), %d appends / %d syncs, %d segments (%d compacted)\n",
			w.Mode, w.FirstLSN, w.LastLSN, w.SyncedLSN, w.Appends, w.Syncs, w.Segments, w.TruncatedSegments)
		fmt.Printf("checkpoint: %d taken, last at offset %d (%d bytes, %dus)\n",
			w.Checkpoints, w.LastCheckpointLSN, w.LastCheckpointB, w.LastCheckpointUs)
	}
	if d := stats.Drift; d != nil && (d.Enabled || d.QuarantinedNow > 0 || d.ProbationNow > 0) {
		fmt.Printf("safeguard:  detection=%v, %d quarantined, %d probation, %d blocked ranks, %d transitions (%d manual)\n",
			d.Enabled, d.QuarantinedNow, d.ProbationNow, d.BlockedRanks, d.Transitions, d.Manual)
	}
	if in := stats.Incidents; in != nil {
		line := fmt.Sprintf("incidents:  %d bundles, %d triggered (%d suppressed, %d capture errors)",
			in.Count, in.Triggered, in.Suppressed, in.CaptureErrors)
		if in.LastID != "" {
			line += fmt.Sprintf(", last %s (%s) %.0fs ago", in.LastID, in.LastReason, in.LastAgeSec)
		}
		fmt.Println(line)
	}
	if tr := stats.Traces; tr != nil {
		fmt.Printf("flightrec:  %d/%d traces retained (%d slow, %d error, %d sampled), %d evicted, threshold %dms\n",
			tr.Retained, tr.Capacity, tr.RetainedSlow, tr.RetainedError, tr.RetainedSampled,
			tr.Evicted, tr.ThresholdMicros/1000)
	}

	for _, r := range slices.Sorted(maps.Keys(stats.Routes)) {
		m := stats.Routes[r]
		if m.Count == 0 {
			continue
		}
		fmt.Printf("route %-20s %6d calls, %d errors, avg %.0fus, p50 %dus, p99 %dus, p999 %dus, max %dus\n",
			r, m.Count, m.Errors, float64(m.TotalMicros)/float64(m.Count),
			m.P50Micros, m.P99Micros, m.P999Micros, m.MaxMicros)
	}

	for _, s := range slices.Sorted(maps.Keys(stats.Stages)) {
		m := stats.Stages[s]
		if m.Count == 0 {
			continue
		}
		fmt.Printf("stage %-20s %6d obs,             mean %dus, p50 %dus, p99 %dus, p999 %dus\n",
			s, m.Count, m.MeanMicros, m.P50Micros, m.P99Micros, m.P999Micros)
	}
	return healthErr
}

// pushHintsMode uploads a SIS hint file to a running server — the
// out-of-process half of the pipeline rollover, over the typed client.
type pushHintsMode struct{ url, hints string }

func (m *pushHintsMode) register(fs *flag.FlagSet) {
	fs.StringVar(&m.hints, "hints", "", "SIS hint file to upload (required)")
}

func (m *pushHintsMode) validate(url string) error {
	m.url = url
	if m.hints == "" {
		return errors.New("needs -hints <file>")
	}
	return nil
}

func (m *pushHintsMode) run() error {
	f, err := os.Open(m.hints)
	if err != nil {
		return err
	}
	defer f.Close()
	cl := client.New(m.url, client.WithTimeout(30*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := cl.InstallHints(ctx, f)
	if err != nil {
		return err // an *api.Error already reads "code: message"
	}
	fmt.Printf("installed %d hints (day %d) as generation %d\n",
		resp.Installed, resp.Day, resp.Generation)
	return nil
}

// journalFlags name the journal the offline modes read: the directory
// (required) and the snapshot a replay starts from.
type journalFlags struct {
	replayFlags
	walDir, model string
}

func (j *journalFlags) register(fs *flag.FlagSet) {
	j.replayFlags.register(fs)
	fs.StringVar(&j.walDir, "wal-dir", "", "journal directory to read (required; never written)")
	fs.StringVar(&j.model, "model", "", "model snapshot to start the replay from (empty = none for replay, <wal-dir>/model.snap for audit asof)")
}

func (j *journalFlags) validate() error {
	if j.walDir == "" {
		return errors.New("needs -wal-dir <journal directory>")
	}
	return nil
}

// replayMode is the offline recovery tool: rebuild a model from a
// journal directory (plus an optional snapshot to start from), write
// it to out, and report what the journal contributed. The rebuild
// is deterministic — running it twice produces byte-identical output —
// and read-only with respect to the journal.
type replayMode struct {
	journalFlags
	out string
}

func (m *replayMode) validate(out string) error {
	m.out = out
	return m.journalFlags.validate()
}

func (m *replayMode) run() error {
	rec, err := serve.Recover(wal.DirSource{Dir: m.walDir}, m.model, m.trainEvery, m.maxLog, 0)
	if apiErr := (*api.Error)(nil); m.model == "" && errors.As(err, &apiErr) {
		// Recover's one invalid_request: a journal compacted behind a
		// checkpoint, whose snapshot alone covers the missing records.
		return fmt.Errorf("%w; pass -model with the snapshot of the checkpoint that compacted it", err)
	}
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rec.Service.Save(&buf); err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(m.out, buf.Bytes()); err != nil {
		return err
	}
	fmt.Printf("snapshot:  loaded=%v watermark=%d\n", rec.SnapshotLoaded, rec.FromLSN)
	fmt.Printf("journal:   %d records replayed, %d skipped (covered by snapshot)\n",
		rec.Journal.Records, rec.Journal.Skipped)
	if rec.Journal.Truncated {
		fmt.Printf("tail:      damaged record skipped cleanly (%v)\n", rec.Journal.TailError)
	}
	fmt.Printf("rebuilt:   %d ranks, %d rewards (%d unknown), %d training runs over %d events\n",
		rec.Replay.Ranks, rec.Replay.Rewards, rec.Replay.UnknownRewards,
		rec.Replay.TrainRuns, rec.Replay.TrainedEvents)
	if rec.HintRollovers > 0 {
		fmt.Printf("hints:     %d rollovers replayed; active table has %d hints (generation %d)\n",
			rec.HintRollovers, len(rec.Hints), rec.HintGen)
	}
	if rec.QuarantineRecords > 0 {
		fmt.Printf("safeguard: %d quarantine records replayed; %d templates held (quarantined or probation)\n",
			rec.QuarantineRecords, len(rec.Quarantine))
	}
	fmt.Printf("model:     %d bytes -> %s (WAL watermark %d)\n", buf.Len(), m.out, rec.Service.WALWatermark())
	return nil
}

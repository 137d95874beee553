// Command qoserved runs QO-Advisor's online steering service and its
// operator tooling. It is one program per subcommand, each with
// its own flag set holding exactly the flags that mode reads — a flag
// another mode owns is "flag provided but not defined" here:
//
//	qoserved serve [flags]                          # primary: rank, reward, journal
//	qoserved follow <primary> [flags]               # read replica tailing a primary
//	qoserved cluster <url,url,...>                  # node health + stats, merged percentiles
//	qoserved push-hints <url> -hints f.hints        # rollover upload
//	qoserved audit records  -wal-dir dir [-event e] [-template-hash h]
//	qoserved audit decision -wal-dir dir -event e        # decision trace
//	qoserved audit template -wal-dir dir -template-hash h  # steering lineage
//	qoserved audit asof     -wal-dir dir [-lsn n] [-audit-out m.snap]  # offline model rebuild
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
// write-ahead log (group-commit fsync per -wal-sync; segments roll at
// wal.DefaultSegmentBytes, 64 MiB, in internal/wal/wal.go), a
// checkpoint ticker (every 5 minutes: checkpointEvery, in this file;
// POST /v2/model/snapshot checkpoints on demand) snapshots the model
// with its covering WAL offset and truncates sealed segments, and
// startup replays the journal suffix above the snapshot watermark — so
// a crash loses at most the last unsynced group-commit window instead
// of every reward since boot.
// A WAL-backed server is also a replication primary: followers
// bootstrap from GET /v2/wal/snapshot and tail GET /v2/wal.
//
// follow runs a read-scaled follower instead: it bootstraps a replica
// of the primary's learner and hint table, tails the primary's WAL to
// stay current, serves /v2/rank (greedy, deterministic), /v2/healthz
// and /v2/stats locally, and rejects writes with a structured
// not_primary error carrying the primary's URL. If the primary compacts
// past the follower's position, the follower re-bootstraps on its own.
// There are no replay values to pass: the training cadence and the
// event-log cap are constants, so a follower, a restart and audit asof
// rebuild the primary's model from its journal alone.
//
// Observability: every node serves Prometheus text-format metrics at
// GET /metrics and its build identity at GET /v2/version (offline:
// qoserved version). -pprof mounts net/http/pprof on a separate
// listener. Every request records its stage timeline into one flight
// recorder, which retains the traces of slow (250ms; 25ms on /v2/rank)
// or errored requests in a bounded in-memory ring served as
// Chrome-trace JSON at GET /v2/traces. With -incident-dir set, serve's
// incident engine watches the SLO burn rate, drift quarantines and
// journal fail-stops, and captures a diagnostic bundle (profiles,
// histograms, retained traces, full stats) when one fires; bundles are
// listed at GET /v2/incidents. -drift turns on the drift safeguard. Its
// thresholds and windows, the incident triggers and the trace ring's
// cutoff and size are constants (internal/drift/drift.go,
// internal/serve/incident.go, internal/obs/flight.go), not flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

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
	{"cluster", "<url,url,...>", "scrape /v2/healthz and /v2/stats from every node, print per-node health and detail and fleet-merged percentiles", func() mode { return new(clusterMode) }},
	{"push-hints", "<url>", "upload the -hints file to a running primary as a rollover", func() mode { return new(pushHintsMode) }},
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

// nodeFlags are what every serving node reads, primary or follower:
// where to listen and how to be observed.
type nodeFlags struct {
	addr, logLevel, pprofAddr string
	level                     slog.Level // -log-level, parsed by validate
}

func (n *nodeFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&n.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&n.logLevel, "log-level", "info", "minimum log level: debug, info, warn, error")
	fs.StringVar(&n.pprofAddr, "pprof", "", "serve net/http/pprof on a separate listener at this address (empty = disabled)")
}

func (n *nodeFlags) validate() (err error) {
	n.level, err = parseLevel(n.logLevel)
	return err
}

// observe applies the node flags: the log level and the pprof listener
// (its own, so profile endpoints are never exposed on the serving
// address).
func (n *nodeFlags) observe() {
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
}

// checkpointEvery is serve's checkpoint cadence: snapshot the model with
// its covering journal offset and truncate the covered segments.
// POST /v2/model/snapshot checkpoints in between, SIGTERM once more at
// shutdown.
const checkpointEvery = 5 * time.Minute

// serveMode is the primary.
type serveMode struct {
	nodeFlags
	seed                          int64
	hints, model, walDir, walSync string
	walMode                       wal.Mode // -wal-sync, parsed by validate
	uniform, drift                bool
	incidentDir                   string
}

func (m *serveMode) register(fs *flag.FlagSet) {
	m.nodeFlags.register(fs)
	fs.Int64Var(&m.seed, "seed", 42, "exploration seed")
	fs.StringVar(&m.hints, "hints", "", "SIS hint file (qoadvisor -hints) to install at startup, replacing the recovered hint table")
	fs.StringVar(&m.model, "model", "", "model snapshot path: loaded at startup if present, written on shutdown and POST /v2/model/snapshot")
	fs.BoolVar(&m.uniform, "uniform", false, "rank with the uniform-at-random logging policy")
	fs.StringVar(&m.walDir, "wal-dir", "", "durable reward journal directory (empty = in-memory only)")
	fs.StringVar(&m.walSync, "wal-sync", "async", "journal durability mode: sync (fsync before ack), async (group-commit window), off (never fsync)")
	fs.BoolVar(&m.drift, "drift", false, "detect per-template reward drift and auto-quarantine regressed hints (journaled)")
	fs.StringVar(&m.incidentDir, "incident-dir", "", "capture diagnostic bundles (profiles, histograms, slow traces, stats) into this directory when an incident trigger fires (empty = disabled)")
}

func (m *serveMode) validate(string) (err error) {
	if m.walMode, err = wal.ParseMode(m.walSync); err != nil {
		return fmt.Errorf("bad -wal-sync: %w", err)
	}
	return m.nodeFlags.validate()
}

func (m *serveMode) run() error {
	m.observe()

	var journal *wal.WAL
	if m.walDir != "" {
		var err error
		journal, err = wal.Open(wal.Options{Dir: m.walDir, Mode: m.walMode})
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
		cfg := drift.DefaultConfig()
		driftCfg = &cfg
	}
	// serve.Open recovers the model from -model plus the journal suffix
	// (or starts a fresh learner), restores the journaled quarantine and
	// hint tables and, with a WAL, takes the initial checkpoint.
	srv, rec, err := serve.Open(serve.Config{
		Seed:         m.seed,
		Uniform:      m.uniform,
		SnapshotPath: m.model,
		WAL:          journal,
		IncidentDir:  m.incidentDir, // empty = disabled
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
	if m.incidentDir != "" {
		logg.Info("incident capture enabled", "dir", m.incidentDir)
	}
	// A -hints file is a whole SIS table (the pipeline merges before each
	// upload), so it replaces the recovered one as one journaled rollover,
	// exactly as push-hints would. Without it the recovered table stands.
	if m.hints != "" {
		hints, err := loadHints(m.hints, rules.NewCatalog())
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
		if model == "" {
			return
		}
		t := time.NewTicker(checkpointEvery)
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
// -model, -wal-*, -drift, -incident-dir, ...) do not exist here. What is
// left is where to listen and how to log and profile; its trace ring
// keeps slow and errored requests at the same fixed cutoffs as the
// primary's.
type followMode struct {
	nodeFlags
	primary string
}

func (m *followMode) register(fs *flag.FlagSet) {
	m.nodeFlags.register(fs)
}

func (m *followMode) validate(primary string) error {
	m.primary = primary
	return m.nodeFlags.validate()
}

// run needs no babysitting loop: the replicate.Follower re-bootstraps
// itself if the primary compacts past its position.
func (m *followMode) run() error {
	m.observe()
	f, err := replicate.Start(replicate.Config{
		Primary: m.primary,
		Logger:  logg,
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
	fmt.Printf("qoserved %s (%s, revision %s, %s)\n", b.Version, b.Module, obs.Revision(b.Revision, b.Modified), b.GoVersion)
	return nil
}

// clusterMode scrapes /v2/healthz and /v2/stats from every listed
// endpoint — one or many — and renders the fleet view: per-node rows
// (role, health, lag, quarantine state) and detail (build, serving,
// ingest, journal, safeguard, incidents, flight recorder), plus the
// fleet-merged per-route and per-stage percentiles, computed by merging
// the raw histogram buckets each node ships — not by averaging per-node
// percentiles, which would be wrong. It is a gate: an unreachable node
// (its row still prints with the scrape error) or a degraded one, such
// as a stale follower, fails the exit code.
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
	if n := snap.Healthy(); n < len(m.endpoints) {
		return fmt.Errorf("%d of %d nodes unreachable or degraded", len(m.endpoints)-n, len(m.endpoints))
	}
	return nil
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

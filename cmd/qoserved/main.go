// Command qoserved runs QO-Advisor's online steering service: an HTTP
// Rank/Reward server backed by a sharded hint cache and an asynchronous
// reward-ingestion pipeline.
//
// On startup it can bootstrap itself end-to-end by running the offline
// daily pipeline for a few simulated days — producing a validated hint
// table and a trained bandit — and then serves both: cached hints answer
// steering queries for known templates, the bandit ranks everything else,
// and /v2/reward telemetry trains the model continuously off the request
// path. On SIGINT/SIGTERM the server drains the reward queue and, when
// -model is set, persists the learner so a restart resumes from the
// learned state.
//
// With -wal-dir set the server runs durably: every rank decision,
// accepted reward batch, and hint-table rollover is journaled to a
// segmented write-ahead log (group-commit fsync per -wal-sync), a
// checkpoint ticker (-snapshot-every) snapshots the model with its
// covering WAL offset and truncates sealed segments, and startup
// replays the journal suffix above the snapshot watermark — so a
// crash loses at most the last unsynced group-commit window instead
// of every reward since boot. A WAL-backed server is also a
// replication primary: followers bootstrap from GET /v2/wal/snapshot
// and tail GET /v2/wal.
//
// With -follow set the server runs as a read-scaled follower instead:
// it bootstraps a replica of the primary's learner and hint table,
// tails the primary's WAL to stay current, serves /v2/rank (greedy,
// deterministic), /v2/healthz and /v2/stats locally, and rejects
// writes with a structured not_primary error carrying the primary's
// URL. If the primary compacts past the follower's position, the
// follower re-bootstraps on its own.
//
// Usage:
//
//	qoserved [-addr :8080] [-bootstrap-days 5] [-templates 24] [-seed 42]
//	         [-hints file] [-model file] [-shards 32] [-queue 4096]
//	         [-workers 0] [-train-every 256] [-rank-workers 0] [-uniform]
//	         [-wal-dir dir] [-wal-sync async] [-wal-segment-mb 64]
//	         [-snapshot-every 5m] [-log-level info] [-pprof :6060]
//	         [-trace-out trace.json] [-trace-sample 100] [-trace-retain-ms 250]
//	         [-incident-dir dir] [-incident-burn-threshold 2] [-incident-cooldown 5m]
//	qoserved -follow http://primary:8080 [-addr :8081] [-train-every 256]
//
// Observability: every node serves Prometheus text-format metrics at
// GET /metrics and its build identity at GET /v2/version (also:
// qoserved -version). -pprof mounts net/http/pprof on a separate
// listener. Every request records its stage timeline into one flight
// recorder, which retains the traces of slow or errored requests in a
// bounded in-memory ring served at GET /v2/traces (-trace-retain-ms
// tunes the slow threshold); -trace-out additionally head-samples 1 in
// -trace-sample requests into the ring and writes them to a file as
// Chrome-trace JSON. With -incident-dir set, the
// incident engine watches the SLO burn rate, drift quarantines and
// journal fail-stops, and captures a diagnostic bundle (profiles,
// histograms, retained traces, full stats) when one fires; bundles are
// listed at GET /v2/incidents.
//
// It doubles as the protocol's ops CLI via the typed client
// (qoadvisor/internal/api/client) and the journal's offline tooling:
//
//	qoserved -check http://host:8080              # /v2/healthz + /v2/stats
//	qoserved -push-hints http://host:8080 -hints f.hints   # rollover upload
//	qoserved -replay out.model -wal-dir dir [-model snap]  # offline rebuild
//	qoserved -audit records -wal-dir dir [-event e] [-template-hash h]
//	qoserved -audit decision -wal-dir dir -event e         # decision trace
//	qoserved -audit template -wal-dir dir -template-hash h # steering lineage
//	qoserved -audit asof -wal-dir dir [-lsn n] [-audit-out m.snap]
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/fleet"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/workload"
)

// logg is the process-wide leveled logger, built from -log-level
// before any mode dispatches. Writes key=value lines to stderr.
var logg *obs.Logger

// fatal logs msg at error level and exits nonzero — the leveled
// replacement for log.Fatalf.
func fatal(msg string, kv ...any) {
	logg.Error(msg, kv...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	seed := flag.Int64("seed", 42, "workload, pipeline and exploration seed")
	templates := flag.Int("templates", 24, "bootstrap workload size (recurring job templates)")
	bootstrapDays := flag.Int("bootstrap-days", 5, "simulated pipeline days to run before serving (0 = none)")
	hintsPath := flag.String("hints", "", "load an additional SIS hint file into the cache")
	modelPath := flag.String("model", "", "model snapshot path: loaded at startup if present, written on shutdown and POST /v2/model/snapshot")
	shards := flag.Int("shards", 0, "hint cache shard count (0 = default)")
	queue := flag.Int("queue", 0, "reward ingestion queue size (0 = default)")
	workers := flag.Int("workers", 0, "reward ingestion workers (0 = default 1; applies serialize on the learner)")
	trainEvery := flag.Int("train-every", 0, "train after this many applied rewards (0 = default)")
	rankWorkers := flag.Int("rank-workers", 0, "/v2/rank batch fan-out pool size (0 = GOMAXPROCS)")
	maxLog := flag.Int("max-log", 0, "cap on retained rank events (0 = default, negative = unbounded)")
	uniform := flag.Bool("uniform", false, "rank with the uniform-at-random logging policy")
	walDir := flag.String("wal-dir", "", "durable reward journal directory (empty = in-memory only)")
	walSync := flag.String("wal-sync", "async", "journal durability mode: sync (fsync before ack), async (group-commit window), off (never fsync)")
	walSegMB := flag.Int64("wal-segment-mb", 64, "journal segment size in MiB before rolling to a new file")
	driftOn := flag.Bool("drift", false, "detect per-template reward drift and auto-quarantine regressed hints (journaled; primary only)")
	driftThreshold := flag.Float64("drift-threshold", 0, "with -drift: baseline standard deviations below baseline mean that count as degraded (0 = default 4)")
	driftQuarantineAfter := flag.Int("drift-quarantine-after", 0, "with -drift: consecutive degraded observations before quarantine (0 = default 16)")
	driftRestoreAfter := flag.Int("drift-restore-after", 0, "with -drift: consecutive recovered probation observations before full restore (0 = default 32)")
	driftMaxTemplates := flag.Int("drift-max-templates", 0, "with -drift: cap on exactly-tracked templates, the rest stay in the sketch (0 = default 4096)")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "checkpoint interval: snapshot the model and truncate covered journal segments (0 = only on shutdown)")
	replayOut := flag.String("replay", "", "ops mode: rebuild a model offline from -wal-dir (+ optional -model snapshot), write it to this path, exit")
	auditMode := flag.String("audit", "", "ops mode: offline journal query over -wal-dir (records, decision, template, asof), print, exit")
	auditEvent := flag.String("event", "", "with -audit: event ID to trace (decision) or filter on (records)")
	auditTemplate := flag.String("template-hash", "", "with -audit: 64-bit hex template hash to query (template) or filter on (records)")
	auditLSN := flag.Uint64("lsn", 0, "with -audit asof: reconstruction LSN (0 = journal end)")
	auditFrom := flag.Uint64("audit-from", 0, "with -audit records: lowest LSN to return (0 = journal start)")
	auditTo := flag.Uint64("audit-to", 0, "with -audit records: highest LSN to return (0 = journal end)")
	auditType := flag.String("audit-type", "", "with -audit records: comma-separated record types (rank, reward, train, hints, quarantine)")
	auditLimit := flag.Int("audit-limit", 0, "with -audit records: stop after this many rows (0 = unlimited)")
	auditOut := flag.String("audit-out", "", "with -audit asof: write the reconstructed snapshot to this path")
	check := flag.String("check", "", "client mode: probe a running server's /v2/healthz and /v2/stats, print, exit")
	cluster := flag.String("cluster", "", "fleet check mode: comma-separated endpoint list; scrape /v2/stats from every node and render per-node rows plus the fleet-merged route/stage percentiles")
	pushHints := flag.String("push-hints", "", "client mode: upload the -hints file to a running server and exit")
	follow := flag.String("follow", "", "follower mode: primary base URL to replicate from (serves reads locally, rejects writes)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	showVersion := flag.Bool("version", false, "print build information and exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on a separate listener at this address (empty = disabled)")
	traceOut := flag.String("trace-out", "", "write Chrome-trace JSON for sampled requests to this file (load in chrome://tracing or ui.perfetto.dev)")
	traceSample := flag.Int("trace-sample", 100, "with -trace-out, trace 1 in N requests")
	traceRetainMS := flag.Int("trace-retain-ms", 0, "retain traces of requests slower than this many ms in the in-memory ring served at /v2/traces (0 = default 250ms)")
	incidentDir := flag.String("incident-dir", "", "capture diagnostic bundles (profiles, histograms, slow traces, stats) into this directory when an incident trigger fires (empty = disabled)")
	incidentBurn := flag.Float64("incident-burn-threshold", 0, "with -incident-dir: shortest-window SLO burn rate that triggers a capture (0 = default 2.0)")
	incidentCooldown := flag.Duration("incident-cooldown", 0, "with -incident-dir: minimum spacing between captures (0 = default 5m)")
	flag.Parse()

	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qoserved: %v\n", err)
		os.Exit(1)
	}
	logg = obs.NewLogger(os.Stderr, lv)

	if *showVersion {
		b := obs.Build()
		rev := b.Revision
		if rev == "" {
			rev = "unknown"
		}
		if b.Modified {
			rev += "-dirty"
		}
		fmt.Printf("qoserved %s (%s, revision %s, %s)\n", b.Version, b.Module, rev, b.GoVersion)
		return
	}

	if *cluster != "" {
		if err := runClusterCheck(*cluster); err != nil {
			fatal("cluster check failed", "cluster", *cluster, "err", err)
		}
		return
	}
	if *check != "" {
		if err := runCheck(*check); err != nil {
			fatal("check failed", "target", *check, "err", err)
		}
		return
	}
	if *pushHints != "" {
		if err := runPushHints(*pushHints, *hintsPath); err != nil {
			fatal("push-hints failed", "target", *pushHints, "err", err)
		}
		return
	}
	if *replayOut != "" {
		if err := runReplay(*replayOut, *walDir, *modelPath, *trainEvery, *maxLog, *seed); err != nil {
			fatal("replay failed", "out", *replayOut, "err", err)
		}
		return
	}
	if *auditMode != "" {
		err := runAudit(auditArgs{
			mode:         *auditMode,
			walDir:       *walDir,
			event:        *auditEvent,
			template:     *auditTemplate,
			lsn:          *auditLSN,
			from:         *auditFrom,
			to:           *auditTo,
			types:        *auditType,
			limit:        *auditLimit,
			out:          *auditOut,
			snapshotPath: *modelPath,
			trainEvery:   *trainEvery,
			maxLog:       *maxLog,
			seed:         *seed,
		})
		if err != nil {
			fatal("audit failed", "mode", *auditMode, "err", err)
		}
		return
	}

	// Profiling and tracing apply to primary and follower modes alike.
	// pprof gets its own listener so profile endpoints are never exposed
	// on the serving address.
	if *pprofAddr != "" {
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				logg.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		logg.Info("pprof listening", "addr", *pprofAddr)
	}
	if *traceRetainMS < 0 {
		fatal("-trace-retain-ms must not be negative", "value", *traceRetainMS)
	}
	flightCfg := obs.FlightConfig{Threshold: time.Duration(*traceRetainMS) * time.Millisecond}
	if *traceOut != "" {
		tf, terr := os.Create(*traceOut)
		if terr != nil {
			fatal("creating trace output", "path", *traceOut, "err", terr)
		}
		flightCfg.Export, flightCfg.SampleEvery = tf, *traceSample
		logg.Info("request tracing enabled", "path", *traceOut, "sampleEvery", *traceSample)
	}
	flight := serve.NewFlightRecorder(flightCfg)
	if *follow != "" {
		if *walDir != "" {
			fatal("-follow and -wal-dir are mutually exclusive (a follower's durable state IS the primary's journal)")
		}
		// A follower serves only the primary's replicated model and hint
		// table; fail loudly on primary-only flags rather than silently
		// ignoring an operator's hint file or bootstrap config.
		primaryOnly := map[string]string{
			"hints":                   "hint tables reach a cluster via -push-hints to the primary",
			"model":                   "a follower's state is the primary's snapshot + journal",
			"bootstrap-days":          "followers bootstrap from the primary, not the offline pipeline",
			"templates":               "followers bootstrap from the primary, not the offline pipeline",
			"uniform":                 "the ranking policy is the primary's; followers serve it greedily",
			"queue":                   "followers have no reward ingestion queue (writes are redirected)",
			"workers":                 "followers have no reward ingestion workers (writes are redirected)",
			"wal-sync":                "followers do not journal (the primary's WAL is the journal)",
			"wal-segment-mb":          "followers do not journal (the primary's WAL is the journal)",
			"snapshot-every":          "followers do not checkpoint (the primary owns durability)",
			"drift":                   "drift detection runs on the primary; followers replicate its quarantine table",
			"drift-threshold":         "drift detection runs on the primary; followers replicate its quarantine table",
			"drift-quarantine-after":  "drift detection runs on the primary; followers replicate its quarantine table",
			"drift-restore-after":     "drift detection runs on the primary; followers replicate its quarantine table",
			"drift-max-templates":     "drift detection runs on the primary; followers replicate its quarantine table",
			"incident-dir":            "incident capture is a primary concern; scrape the follower's /v2/traces and /metrics instead",
			"incident-burn-threshold": "incident capture is a primary concern; scrape the follower's /v2/traces and /metrics instead",
			"incident-cooldown":       "incident capture is a primary concern; scrape the follower's /v2/traces and /metrics instead",
		}
		var conflict string
		flag.Visit(func(f *flag.Flag) {
			if why, ok := primaryOnly[f.Name]; ok && conflict == "" {
				conflict = fmt.Sprintf("-%s has no effect in -follow mode: %s", f.Name, why)
			}
		})
		if conflict != "" {
			fatal(conflict)
		}
		ferr := runFollower(*addr, *follow, *shards, *rankWorkers, *trainEvery, *maxLog, *seed, flight)
		closeFlight(flight)
		if ferr != nil {
			fatal("follow failed", "primary", *follow, "err", ferr)
		}
		return
	}

	cat := rules.NewCatalog()

	mode, err := wal.ParseMode(*walSync)
	if err != nil {
		fatal("bad -wal-sync", "err", err)
	}
	// A WAL without a snapshot path would replay the whole journal on
	// every boot and never compact; default the snapshot next to it.
	if *walDir != "" && *modelPath == "" {
		*modelPath = filepath.Join(*walDir, "model.snap")
	}

	// Model precedence: recovered durable state wins (snapshot + WAL
	// suffix, or snapshot alone); otherwise the bootstrap pipeline's
	// trained bandit; otherwise fresh.
	var svc *bandit.Service
	var journal *wal.WAL
	var recoveredHints []sis.Hint
	var recoveredGen uint64
	var recoveredRollovers int64
	var recoveredQuarantine map[uint64]drift.State
	var recoveredQuarRecords int64
	if *walDir != "" {
		journal, err = wal.Open(wal.Options{Dir: *walDir, Mode: mode, SegmentBytes: *walSegMB << 20})
		if err != nil {
			fatal("opening WAL", "dir", *walDir, "err", err)
		}
		if torn, reason := journal.TailDamage(); torn > 0 {
			// Open already cut the damage away; tell the operator that a
			// crash discarded records past the last durable group commit.
			logg.Warn("journal tail damaged (crash artifact)", "truncatedBytes", torn, "reason", reason)
		}
		rec, err := serve.Recover(journal, *modelPath, *trainEvery, *maxLog, *seed)
		if err != nil {
			fatal("recovering journal", "dir", *walDir, "err", err)
		}
		if rec.Recovered() {
			svc = rec.Service
			recoveredHints, recoveredGen, recoveredRollovers = rec.Hints, rec.HintGen, rec.HintRollovers
			recoveredQuarantine, recoveredQuarRecords = rec.Quarantine, rec.QuarantineRecords
			logg.Info("recovered model",
				"snapshot", rec.SnapshotLoaded, "watermarkLsn", rec.FromLSN,
				"records", rec.Journal.Records, "ranks", rec.Replay.Ranks,
				"rewards", rec.Replay.Rewards, "trained", rec.Replay.TrainedEvents,
				"hintRollovers", rec.HintRollovers)
		}
	} else if *modelPath != "" {
		if f, err := os.Open(*modelPath); err == nil {
			loaded, lerr := bandit.Load(f, *seed)
			f.Close()
			if lerr != nil {
				fatal("loading model", "path", *modelPath, "err", lerr)
			}
			svc = loaded
			logg.Info("model restored", "path", *modelPath)
		} else if !errors.Is(err, os.ErrNotExist) {
			fatal("opening model", "path", *modelPath, "err", err)
		}
	}

	var hints, fileHints []sis.Hint
	if *bootstrapDays > 0 {
		adv, bootHints, err := bootstrap(cat, *seed, *templates, *bootstrapDays)
		if err != nil {
			fatal("bootstrap failed", "err", err)
		}
		hints = bootHints
		if svc == nil {
			svc = adv.CB.Service
			logg.Info("serving the bootstrap pipeline's trained bandit")
		}
	}
	if *hintsPath != "" {
		f, err := os.Open(*hintsPath)
		if err != nil {
			fatal("opening hints", "path", *hintsPath, "err", err)
		}
		file, err := sis.Parse(f)
		f.Close()
		if err != nil {
			fatal("parsing hints", "path", *hintsPath, "err", err)
		}
		if err := sis.Validate(file, cat); err != nil {
			fatal("validating hints", "path", *hintsPath, "err", err)
		}
		// Merge with the bootstrap table, file hints winning on conflict:
		// both describe the same workload, so template overlap is normal.
		fileHints = file.Hints
		hints = mergeHints(hints, fileHints)
	}

	var driftCfg *drift.Config
	if *driftOn {
		dc := drift.DefaultConfig()
		if *driftThreshold > 0 {
			dc.Threshold = *driftThreshold
			dc.RecoverThreshold = *driftThreshold / 2
		}
		if *driftQuarantineAfter > 0 {
			dc.QuarantineAfter = *driftQuarantineAfter
		}
		if *driftRestoreAfter > 0 {
			dc.RestoreAfter = *driftRestoreAfter
		}
		if *driftMaxTemplates > 0 {
			dc.MaxTemplates = *driftMaxTemplates
		}
		driftCfg = &dc
	}

	var incidentCfg *serve.IncidentConfig
	if *incidentDir != "" {
		incidentCfg = &serve.IncidentConfig{
			Dir:           *incidentDir,
			BurnThreshold: *incidentBurn,
			Cooldown:      *incidentCooldown,
		}
	}
	srv := serve.New(serve.Config{
		Catalog:      cat,
		Bandit:       svc,
		Seed:         *seed,
		Uniform:      *uniform,
		Shards:       *shards,
		QueueSize:    *queue,
		Workers:      *workers,
		TrainEvery:   *trainEvery,
		RankWorkers:  *rankWorkers,
		MaxLogEvents: *maxLog,
		SnapshotPath: *modelPath,
		WAL:          journal,
		Flight:       flight,
		Incidents:    incidentCfg,
		Drift:        driftCfg,
	})
	if incidentCfg != nil {
		logg.Info("incident capture enabled", "dir", *incidentDir)
	}
	// Re-arm the safeguard from the journal BEFORE the initial
	// checkpoint: like the hint table, the quarantine table must be
	// restored without re-journaling, and the checkpoint's snapshot
	// re-journal then carries it above the new watermark. Restoring is
	// unconditional on -drift — enforcement is cheaper than a regressed
	// plan, and an operator who disabled detection still should not
	// serve a hint the journal says was quarantined.
	if recoveredQuarRecords > 0 {
		srv.RestoreQuarantines(recoveredQuarantine)
		logg.Info("quarantine table recovered from journal",
			"templates", len(recoveredQuarantine), "records", recoveredQuarRecords)
	}
	// Gate on rollovers seen, not table size: a journaled rollover to an
	// EMPTY table is a legitimate retirement and must win over the
	// bootstrap pipeline's regenerated hints, at its journaled generation.
	if recoveredRollovers > 0 {
		// Restore the journaled hint table — at its journaled generation,
		// without re-journaling — BEFORE the initial checkpoint, whose
		// hint re-journal would otherwise persist an empty table over it.
		srv.RestoreHints(recoveredHints, recoveredGen)
		logg.Info("hint cache recovered from journal",
			"hints", len(recoveredHints), "generation", recoveredGen)
		// The recovered table is authoritative over the bootstrap
		// pipeline's regenerated one; an explicit -hints file still
		// overlays below (as a fresh journaled rollover).
		hints = nil
		if *hintsPath != "" {
			hints = mergeHints(recoveredHints, fileHints)
		}
	}
	if journal != nil && *modelPath != "" {
		// Checkpoint immediately so pre-journal state (bootstrap training,
		// replayed suffix) is covered by a snapshot: a crash before the
		// first ticker fire must not lose it.
		info, err := srv.Checkpoint(*modelPath)
		if err != nil {
			fatal("initial checkpoint failed", "err", err)
		}
		logg.Info("checkpoint", "bytes", info.Bytes, "walOffset", info.LSN,
			"segmentsCompacted", info.SegmentsRemoved, "took", info.Duration.Round(time.Microsecond))
	}
	if len(hints) > 0 {
		gen, err := srv.InstallHints(hints)
		if err != nil {
			fatal("installing hints failed", "err", err)
		}
		logg.Info("hint cache installed", "hints", srv.Cache().Size(),
			"generation", gen, "shards", srv.Cache().Shards())
	}

	// Periodic checkpoints: persist the model off the SIGTERM path so a
	// crash loses at most one interval of training (and, with a WAL,
	// nothing that was journaled durably), and compact covered journal
	// segments. The ticker stops with the serve context.
	var snapWG sync.WaitGroup
	serveErr := serveUntilSignal(*addr, srv, func(ctx context.Context) {
		if *snapshotEvery > 0 && *modelPath != "" {
			snapWG.Add(1)
			go func() {
				defer snapWG.Done()
				t := time.NewTicker(*snapshotEvery)
				defer t.Stop()
				for {
					select {
					case <-ctx.Done():
						return
					case <-t.C:
						info, err := srv.Checkpoint(*modelPath)
						if err != nil {
							logg.Error("checkpoint failed", "err", err)
							continue
						}
						logg.Info("checkpoint", "bytes", info.Bytes,
							"took", info.Duration.Round(time.Microsecond),
							"walOffset", info.LSN, "segmentsCompacted", info.SegmentsRemoved)
					}
				}
			}()
		}
		logg.Info("qoserved listening", "addr", *addr)
	})
	if serveErr != nil {
		fatal("serving failed", "err", serveErr)
	}

	// Graceful teardown: drain pending rewards into the model, then
	// persist it for the next start.
	snapWG.Wait()
	srv.Close()
	if *modelPath != "" {
		info, err := srv.Checkpoint(*modelPath)
		if err != nil {
			fatal("final snapshot failed", "err", err)
		}
		logg.Info("model persisted", "path", *modelPath, "bytes", info.Bytes, "walOffset", info.LSN)
	}
	if journal != nil {
		if err := journal.Close(); err != nil {
			logg.Error("closing WAL", "err", err)
		}
	}
	closeFlight(flight)
	logg.Info("qoserved stopped")
}

// closeFlight finishes and closes the -trace-out export stream;
// without the close the emitted JSON array is unterminated.
func closeFlight(r *obs.FlightRecorder) {
	if err := r.Close(); err != nil {
		logg.Warn("closing trace output", "err", err)
	}
}

// runReplay is the offline recovery tool: rebuild a model from a
// journal directory (plus an optional snapshot to start from), write
// it to outPath, and report what the journal contributed. The rebuild
// is deterministic — running it twice produces byte-identical output —
// and read-only with respect to the journal.
func runReplay(outPath, walDir, snapshotPath string, trainEvery, maxLog int, seed int64) error {
	if walDir == "" {
		return fmt.Errorf("-replay needs -wal-dir <journal directory>")
	}
	rec, err := serve.Recover(wal.DirSource{Dir: walDir}, snapshotPath, trainEvery, maxLog, seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := rec.Service.Save(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(outPath, buf.Bytes(), 0o644); err != nil {
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
	fmt.Printf("model:     %d bytes -> %s (WAL watermark %d)\n", buf.Len(), outPath, rec.Service.WALWatermark())
	return nil
}

// runFollower runs the read-scaled replica mode: bootstrap from the
// primary, tail its WAL, serve reads locally until SIGINT/SIGTERM.
// The replicate.Follower re-bootstraps itself if the primary compacts
// past its position, so there is nothing to babysit here.
func runFollower(addr, primary string, shards, rankWorkers, trainEvery, maxLog int, seed int64, flight *obs.FlightRecorder) error {
	f, err := replicate.Start(replicate.Config{
		Primary:      primary,
		Seed:         seed,
		TrainEvery:   trainEvery,
		MaxLogEvents: maxLog,
		Shards:       shards,
		RankWorkers:  rankWorkers,
		Logger:       logg,
		Flight:       flight,
	})
	if err != nil {
		return err
	}

	if err := serveUntilSignal(addr, f, func(context.Context) {
		logg.Info("qoserved following", "primary", primary, "addr", addr)
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
// timeout and shutdown behavior cannot drift apart. onUp runs before
// serving begins with a context that cancels at the signal, for
// goroutines that must stop with the server (the checkpoint ticker).
// ListenAndServe returns as soon as Shutdown begins while in-flight
// requests keep running until Shutdown itself returns, so this waits
// for the full drain: when it returns, no handler is running.
func serveUntilSignal(addr string, handler http.Handler, onUp func(ctx context.Context)) error {
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
	if onUp != nil {
		onUp(ctx)
	}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-shutdownDone
	return nil
}

// runClusterCheck scrapes /v2/stats from every listed endpoint and
// renders the fleet view: per-node rows (role, lag, quarantine state)
// plus the fleet-merged per-route and per-stage percentiles, computed
// by merging the raw histogram buckets each node ships — not by
// averaging per-node percentiles, which would be wrong. Like -check it
// is a gate: any unreachable node fails the exit code (its row still
// prints with the scrape error).
func runClusterCheck(list string) error {
	var endpoints []string
	for _, ep := range strings.Split(list, ",") {
		if ep = strings.TrimSpace(ep); ep != "" {
			endpoints = append(endpoints, ep)
		}
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("no endpoints in %q", list)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap := fleet.Scrape(ctx, endpoints, client.WithTimeout(5*time.Second))
	snap.Render(os.Stdout)
	if n := snap.Reachable(); n < len(endpoints) {
		return fmt.Errorf("%d of %d nodes unreachable", len(endpoints)-n, len(endpoints))
	}
	return nil
}

// runCheck probes a running server through the typed client: healthz
// first (cheap, gateable), then the full stats payload with per-route
// latency metrics.
func runCheck(base string) error {
	cl := client.New(base, client.WithTimeout(5*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A degraded node still decodes its health body — print the
	// diagnosis, but keep the error for the exit code: -check is a
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
		rev := v.Revision
		if rev == "" {
			rev = "unknown"
		}
		if v.Modified {
			rev += "-dirty"
		}
		fmt.Printf("version:    %s (revision %s, %s)\n", v.Version, rev, v.GoVersion)
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

	routes := make([]string, 0, len(stats.Routes))
	for r := range stats.Routes {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	for _, r := range routes {
		m := stats.Routes[r]
		if m.Count == 0 {
			continue
		}
		fmt.Printf("route %-20s %6d calls, %d errors, avg %.0fus, p50 %dus, p99 %dus, p999 %dus, max %dus\n",
			r, m.Count, m.Errors, float64(m.TotalMicros)/float64(m.Count),
			m.P50Micros, m.P99Micros, m.P999Micros, m.MaxMicros)
	}

	stages := make([]string, 0, len(stats.Stages))
	for s := range stats.Stages {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		m := stats.Stages[s]
		if m.Count == 0 {
			continue
		}
		fmt.Printf("stage %-20s %6d obs,             mean %dus, p50 %dus, p99 %dus, p999 %dus\n",
			s, m.Count, m.MeanMicros, m.P50Micros, m.P99Micros, m.P999Micros)
	}
	return healthErr
}

// runPushHints uploads a SIS hint file to a running server — the
// out-of-process half of the pipeline rollover, over the typed client.
func runPushHints(base, hintsPath string) error {
	if hintsPath == "" {
		return fmt.Errorf("-push-hints needs -hints <file>")
	}
	f, err := os.Open(hintsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	cl := client.New(base, client.WithTimeout(30*time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err := cl.InstallHints(ctx, f)
	if err != nil {
		var apiErr *api.Error
		if errors.As(err, &apiErr) {
			return fmt.Errorf("server rejected rollover (%s): %s", apiErr.Code, apiErr.Message)
		}
		return err
	}
	fmt.Printf("installed %d hints (day %d) as generation %d\n",
		resp.Installed, resp.Day, resp.Generation)
	return nil
}

// mergeHints overlays additions onto base, additions winning on
// template conflicts; order is preserved (base first, new additions
// appended).
func mergeHints(base, additions []sis.Hint) []sis.Hint {
	index := make(map[uint64]int, len(base))
	out := make([]sis.Hint, len(base))
	copy(out, base)
	for i, h := range out {
		index[h.TemplateHash] = i
	}
	for _, h := range additions {
		if i, ok := index[h.TemplateHash]; ok {
			out[i] = h
			continue
		}
		index[h.TemplateHash] = len(out)
		out = append(out, h)
	}
	return out
}

// bootstrap runs the offline daily pipeline for the requested number of
// simulated days and returns the advisor (whose bandit is now trained)
// plus the active hint table in servable form.
func bootstrap(cat *rules.Catalog, seed int64, templates, days int) (*core.Advisor, []sis.Hint, error) {
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: templates, MaxDailyInstances: 2})
	if err != nil {
		return nil, nil, err
	}
	cluster := exec.DefaultCluster(seed)
	store := sis.NewStore(cat)
	adv := core.NewAdvisor(cat, store, core.Config{
		Seed:      seed,
		Flighting: flighting.Config{Catalog: cat, Cluster: cluster, Seed: seed + 5},
	})
	prod := core.NewProduction(cat, store, cluster, seed+9)

	for day := 1; day <= days; day++ {
		// Off-policy schedule: uniform logging for the first third, the
		// learned policy afterwards (as in cmd/qoadvisor).
		adv.CB.Uniform = day <= days/3
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			return nil, nil, err
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			return nil, nil, err
		}
		if _, err := adv.RunDay(day, jobs, view); err != nil {
			return nil, nil, err
		}
	}
	logg.Info("bootstrap complete", "days", days, "templates", templates, "activeHints", store.Size())
	return adv, adv.ActiveHints(), nil
}

package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// Config parameterizes the steering server. The training cadence
// (bandit.DefaultTrainEvery) and the event-log cap (bandit.ServingMaxLog)
// are constants, not fields: a restart, a follower and audit as-of
// replay the journal on the live node's boundaries with nothing to
// match. Nor is the rule catalog a field: the rules package builds one
// catalog, rules.NewCatalog's canonical 256 rules, and New uses it.
type Config struct {
	// Bandit is the rank/reward learner to serve. Nil builds a fresh one
	// from Seed; passing the daily pipeline's trained service carries the
	// learned policy into serving. Either way the server caps its event
	// log at bandit.ServingMaxLog.
	Bandit *bandit.Service
	// Seed drives exploration when Bandit is nil.
	Seed int64
	// Uniform switches ranking to the uniform-at-random logging policy
	// (the paper's off-policy data-collection mode).
	Uniform bool
	// SnapshotPath is where POST /v2/model/snapshot persists the model.
	SnapshotPath string
	// WAL, when non-nil, is the durable reward journal: rank decisions
	// are journaled by the learner, reward batches are journaled before
	// acknowledgment, hint rollovers are journaled as walrec.TagHintRollover
	// records, and Checkpoint snapshots the model with a WAL watermark
	// and truncates covered segments. The server takes ownership of
	// journaling but not of the WAL's lifecycle — the caller still
	// closes it (after Close and the final Checkpoint). A WAL-backed
	// server is also a replication primary: followers bootstrap from
	// GET /v2/wal/snapshot and tail GET /v2/wal.
	WAL *wal.WAL
	// Follower switches the server to read-only replica mode: the
	// bandit path of Rank answers with the deterministic greedy policy
	// (no event logged, no exploration randomness consumed — serving a
	// read must not diverge the replica from the primary's journaled
	// state), and every write route (/v2/reward, /v2/hints,
	// POST /v2/model/snapshot, the replication surface) rejects with a
	// structured not_primary error carrying LeaderURL. The replica's
	// state advances only through applied journal records
	// (internal/replicate tails them).
	Follower bool
	// LeaderURL is the primary's base URL, carried by not_primary
	// rejections and reported in stats (follower mode only).
	LeaderURL string
	// Tail is the replication tailer's view of this follower core: its
	// stats feed the replication block of /v2/stats and the staleness
	// check of /v2/healthz, its apply histogram the replication_apply
	// stage. The tailer owns both (they outlive the cores re-syncs swap
	// in); nil on primaries and on a follower embedded without a tailer.
	Tail *TailProbe
	// Drift, when non-nil, enables online drift detection: rewards
	// attributed to a template (RewardEvent.TemplateHash) feed
	// per-template streaming statistics, and templates whose rewards
	// collapse are auto-quarantined — their installed hint refused,
	// rank requests routed to the bandit path — with every transition
	// journaled as a walrec.TagQuarantine record. Enforcement (refusing
	// quarantined hints, the manual admin endpoint, replication of the
	// quarantine table) is always on regardless of this field; Drift
	// only controls the detector. Ignored on followers: detection runs
	// where writes land, replicas enforce the replicated table.
	Drift *drift.Config
	// Flight is the trace sink every request records into, built with
	// NewFlightRecorder. The caller owns it — the replication tailer
	// threads one recorder through every re-bootstrapped core so retained
	// traces survive resync swaps. Nil builds one.
	Flight *obs.FlightRecorder
	// IncidentDir, when set, enables the incident engine: SLO-burn,
	// quarantine, and WAL-failure triggers capture diagnostic bundles
	// into it. Open creates it and fails if it cannot.
	IncidentDir string
}

// TailProbe is what a replication tailer hands the follower core it
// constructs.
type TailProbe struct {
	// Stats reports the tailer's replication view (applied LSN, lag,
	// tail age).
	Stats func() api.ReplicationStats
	// ApplyLatency is the tailer's record-apply histogram.
	ApplyLatency *obs.Histogram
}

// Server is the embeddable online steering service. It serves hint-cache
// lookups and bandit ranks, ingests rewards asynchronously, and exposes
// the whole surface over HTTP via ServeHTTP. All request/response wire
// types live in qoadvisor/internal/api; this type carries only domain
// state.
type Server struct {
	cat    *rules.Catalog
	cache  *HintCache
	bandit *bandit.Service
	ingest *Ingestor
	wal    *wal.WAL
	guard  *safeguard

	checkpoints    atomic.Int64
	lastCkptLSN    atomic.Uint64
	lastCkptBytes  atomic.Int64
	lastCkptMicros atomic.Int64

	uniform      bool
	follower     bool
	leaderURL    string
	snapshotPath string
	snapMu       sync.Mutex
	start        time.Time
	http         *httpLayer

	// Journal audit: the lazily opened engine behind /v2/audit and its
	// query-latency histogram.
	auditEng atomic.Pointer[audit.Engine]
	auditLat obs.Histogram

	// rolloverMu orders hint-table swaps against their journal records:
	// two racing rollovers must append in generation order or replay
	// would finish on the older table.
	rolloverMu sync.Mutex

	// Primary-side replication counters (maintained by the /v2/wal
	// stream handler) and the follower-side view handed in by the
	// replication tailer (nil without one).
	walStreams      atomic.Int64
	walStreamsTotal atomic.Int64
	walRecsShipped  atomic.Int64
	walBytesShipped atomic.Int64
	tail            *TailProbe

	rankRequests atomic.Int64
	hintHits     atomic.Int64
	banditRanks  atomic.Int64
	noops        atomic.Int64

	// Observability: per-stage latency histograms and the build
	// identity served by /v2/version.
	stages  *stageHists
	version api.VersionInfo

	// slo tracks the node's service-level objectives.
	slo *obs.SLOTracker

	// flight is the trace sink; incidents is the diagnostic-capture
	// engine (nil = disabled).
	flight    *obs.FlightRecorder
	incidents *incidentEngine
}

// New assembles a steering server.
func New(cfg Config) *Server {
	if cfg.Bandit == nil {
		cfg.Bandit = bandit.New(bandit.DefaultConfig(cfg.Seed))
	}
	cfg.Bandit.SetMaxLog(bandit.ServingMaxLog)
	// Stage histograms are shared with the ingestor's drain goroutine, so
	// they must exist before newIngestor starts it.
	stages := &stageHists{}
	// Detection runs only where writes land; enforcement (the table
	// inside the safeguard) exists on every node.
	var det *drift.Detector
	if cfg.Drift != nil && !cfg.Follower {
		det = drift.NewDetector(*cfg.Drift)
	}
	s := &Server{
		cat:          rules.NewCatalog(),
		cache:        NewHintCache(),
		bandit:       cfg.Bandit,
		wal:          cfg.WAL,
		guard:        newSafeguard(det, cfg.WAL),
		ingest:       newIngestor(cfg.Bandit, cfg.WAL, stages),
		uniform:      cfg.Uniform,
		follower:     cfg.Follower,
		leaderURL:    cfg.LeaderURL,
		snapshotPath: cfg.SnapshotPath,
		start:        time.Now(),
		stages:       stages,
		version:      VersionInfo(),
		tail:         cfg.Tail,
		flight:       cfg.Flight,
	}
	if s.flight == nil {
		s.flight = NewFlightRecorder()
	}
	if cfg.WAL != nil {
		// Attach after any snapshot load / journal replay the caller did:
		// from here on every rank decision is journaled.
		cfg.Bandit.AttachJournal(cfg.WAL)
		// Route the journal's fsync timings (committer thread and
		// sync-mode commits alike) into the wal_fsync stage histogram.
		cfg.WAL.SetSyncObserver(stages.walFsync.Observe)
	}
	s.http = newHTTPLayer(s)
	// Objectives read the HTTP layer's route counters, so they declare
	// after the routes exist.
	s.initSLO()
	if cfg.IncidentDir != "" {
		s.incidents = newIncidentEngine(s, cfg.IncidentDir)
		s.incidents.start(incidentTick)
	}
	return s
}

// NewFlightRecorder builds a flight recorder with the server's
// per-route slow thresholds filled in: the rank route retains at the
// SLO rank-latency bound (the requests whose tail burns the budget), the
// WAL long-poll routes never retain as slow (they are slow by design),
// everything else at the recorder's 250ms.
func NewFlightRecorder() *obs.FlightRecorder {
	return obs.NewFlightRecorder(map[string]time.Duration{
		api.RouteV2Rank:        rankLatencyBound,
		api.RouteV2WAL:         -1,
		api.RouteV2WALSnapshot: -1,
	})
}

// journalErrors is the WAL fail-stop signal the incident engine
// watches: reward/rank journal failures (ingest) plus quarantine
// transition journal failures (safeguard).
func (s *Server) journalErrors() int64 {
	return s.ingest.Stats().JournalErrors + s.guard.journalErrs.Load()
}

// Cache returns the hint cache (for embedding and diagnostics).
func (s *Server) Cache() *HintCache { return s.cache }

// SnapshotPath is where the model checkpoints: Config.SnapshotPath, or
// Open's default beside the journal.
func (s *Server) SnapshotPath() string { return s.snapshotPath }

// Bandit returns the served learner.
func (s *Server) Bandit() *bandit.Service { return s.bandit }

// Ingestor returns the reward-ingestion pipeline.
func (s *Server) Ingestor() *Ingestor { return s.ingest }

// InstallHints validates and hot-swaps the hint table — the
// pipeline-rollover entry point, fed from a parsed SIS file (qoserved
// serve -hints, push-hints, POST /v2/hints). Validation is the same gate the HTTP rollover
// applies: rule IDs in range, no duplicate templates, no Required-rule
// flips — plus the table's own addressing limit (see hintTable), which
// only an in-process caller can reach. On a WAL-backed server the
// rollover is journaled (table + generation) before this returns, under
// the same fence as the swap so racing rollovers journal in generation
// order: a restart recovers the installed hints, and followers replicate
// them in decision order. A journal failure is fail-stop — the rollover
// is rejected rather than installed un-replayably — and surfaces as
// *api.Error(CodeInternal).
func (s *Server) InstallHints(hints []sis.Hint) (uint64, error) {
	if err := sis.Validate(sis.File{Hints: hints}, s.cat); err != nil {
		return s.cache.Generation(), err
	}
	if _, ok := hintArena(hints); !ok {
		return s.cache.Generation(), fmt.Errorf("serve: %d hints are past what one table addresses (2 GiB an ID, 4 GiB of IDs)", len(hints))
	}
	s.rolloverMu.Lock()
	if s.wal != nil {
		// Append before the swap: if the disk is sick the table must not
		// be serving while absent from the journal. The generation the
		// swap WILL mint is current+1 (rolloverMu excludes other writers).
		if _, err := s.wal.Append(walrec.EncodeHintRollover(s.cache.Generation()+1, hints)); err != nil {
			s.rolloverMu.Unlock()
			return s.cache.Generation(), api.Errorf(api.CodeInternal, "journaling hint rollover: %v", err)
		}
	}
	gen := s.cache.Replace(hints)
	s.rolloverMu.Unlock()
	return gen, nil
}

// restoreHints installs a recovered hint table at its journaled
// generation without re-journaling — Open's crash-recovery path (the
// record that produced it is already in the log).
func (s *Server) restoreHints(hints []sis.Hint, gen uint64) {
	s.rolloverMu.Lock()
	s.cache.Restore(hints, gen)
	s.rolloverMu.Unlock()
}

// journalHints re-appends the live hint table to the journal — called
// with the snapshot watermark already fixed, so the record lands above
// it and survives both replay-from-snapshot and segment compaction.
// Without this a checkpoint could truncate the only journaled copy of
// the table while the snapshot (model-only) carries none.
func (s *Server) journalHints() error {
	if s.wal == nil {
		return nil
	}
	s.rolloverMu.Lock()
	defer s.rolloverMu.Unlock()
	hints, gen := s.cache.Export()
	if gen == 0 && len(hints) == 0 {
		return nil // nothing ever installed; don't journal an empty wipe
	}
	_, err := s.wal.Append(walrec.EncodeHintRollover(gen, hints))
	return err
}

// QuarantineTable exposes the drift-safeguard enforcement table. The
// replication tailer passes it to its Applier so replicated
// quarantine records take effect on the serving path.
func (s *Server) QuarantineTable() *drift.Table { return s.guard.table }

// ObserveReward feeds one template-attributed reward to the drift
// detector and commits (journal-first) any transition it triggers. A
// *api.Error(CodeInternal) means a proposed transition could not be
// journaled — fail-stop: the safeguard state did not change, and the
// caller must surface the failure rather than acknowledge the reward.
// No-op on nodes without detection.
func (s *Server) ObserveReward(templateHash uint64, reward float64) error {
	return s.guard.observe(templateHash, reward)
}

// Quarantine applies a manual safeguard override: quarantine forces
// the template's hint to be refused, restore (quarantine=false)
// forces it healthy. The transition is journaled exactly like a
// detector-initiated one, so it survives restarts and replicates.
func (s *Server) Quarantine(templateHash uint64, quarantine bool) (drift.Transition, error) {
	return s.guard.setManual(templateHash, quarantine)
}

// DriftStats reports the safeguard's operational view (the /v2/stats
// drift block). templateLimit caps the per-template listing.
func (s *Server) DriftStats(templateLimit int) *api.DriftStats {
	return s.guard.stats(templateLimit)
}

// Close drains and stops the reward ingestor and the incident engine. A
// second Close does nothing more.
func (s *Server) Close() {
	if s.incidents != nil {
		s.incidents.stop()
	}
	s.ingest.Close()
}

// Rank answers one steering query: a cached validated hint when the
// template has one, otherwise an epsilon-greedy bandit decision over the
// job's span actions. This is the embeddable per-job unit of the
// /v2/rank batch fan-out. Validation failures
// return *api.Error with api.CodeInvalidRequest.
func (s *Server) Rank(req api.RankRequest) (api.RankResponse, error) {
	return s.rankTraced(req, nil, 0)
}

// rankTraced is Rank with stage instrumentation threaded through: the
// hint-cache lookup and the bandit decision are timed into the stage
// histograms (always; one time.Now pair and one atomic add each, no
// allocation) and recorded on the request's trace (nil for embedded
// callers — Stage is a nil-safe no-op). tid distinguishes batch lanes
// in the trace.
func (s *Server) rankTraced(req api.RankRequest, tr *obs.Trace, tid int) (api.RankResponse, error) {
	s.rankRequests.Add(1)
	// Validate before the cache lookup so a request is accepted or
	// rejected identically whether or not its template currently has a
	// hint — otherwise a client's malformed span only surfaces as a 400
	// after a rollover evicts the hint.
	var span rules.Bitset
	for _, b := range req.Span {
		if b < 0 || b >= rules.NumRules {
			return api.RankResponse{}, api.Errorf(api.CodeInvalidRequest,
				"span bit %d out of range [0,%d)", b, rules.NumRules)
		}
		span.Set(b)
	}
	if span.IsEmpty() {
		return api.RankResponse{}, api.Errorf(api.CodeInvalidRequest,
			"empty span (empty-span jobs are not steered)")
	}

	// Clock reads dominate instrumentation cost (~50ns each on the
	// bench host vs ~20ns for an atomic histogram record), so the two
	// stages share a midpoint timestamp: hint-lookup end doubles as
	// bandit-stage start. The bandit stage therefore covers everything
	// after a hint miss — feature building, action enumeration, and the
	// bandit decision — which is the latency a caller actually pays for
	// taking the model path.
	lookupStart := time.Now()
	// The hint and the generation reported with it come from one table
	// read, so a response never pairs a hint with another table's
	// generation across a rollover.
	h, gen, ok := s.cache.lookup(uint64(req.TemplateHash))
	if ok && s.guard.blocked(uint64(req.TemplateHash)) {
		// Drift safeguard: the template is quarantined, so its installed
		// hint is refused and the request takes the bandit/exploration
		// path below — the hint stays in the cache for when the
		// quarantine lifts.
		ok = false
	}
	banditStart := time.Now()
	lookupDur := banditStart.Sub(lookupStart)
	s.stages.rankHint.Observe(lookupDur)
	tr.Stage(tid, "rank_hint_lookup", lookupStart, lookupDur)
	if ok {
		s.hintHits.Add(1)
		return api.RankResponse{
			Source:     api.SourceHint,
			Flip:       h.Flip.String(),
			HintDay:    h.Day,
			Generation: gen,
		}, nil
	}

	sc := rankScratches.Get().(*rankScratch)
	defer rankScratches.Put(sc)
	sc.ids = featurize.AppendContext(sc.ids[:0], span, req.RowCount, req.BytesRead)
	sc.actions = featurize.AppendActions(sc.actions[:0], s.cat, span)
	ctx, actions := bandit.Context{IDs: sc.ids}, sc.actions
	var ranked bandit.Ranked
	var err error
	switch {
	case s.follower:
		// Read replica: deterministic greedy decision over the replicated
		// weights — no event logged, no rng consumed, nothing to diverge
		// from the primary. No EventID is returned: the reward for this
		// decision has nowhere to land here (writes go to the leader).
		ranked, err = s.bandit.RankGreedy(ctx, actions)
	case s.uniform:
		ranked, err = s.bandit.RankUniform(ctx, actions)
	default:
		ranked, err = s.bandit.Rank(ctx, actions)
	}
	banditDur := time.Since(banditStart)
	s.stages.rankBandit.Observe(banditDur)
	tr.Stage(tid, "rank_bandit", banditStart, banditDur)
	if err != nil {
		return api.RankResponse{}, err
	}
	s.banditRanks.Add(1)
	resp := api.RankResponse{
		Source:     api.SourceBandit,
		EventID:    ranked.EventID,
		Prob:       ranked.Prob,
		Chosen:     ranked.Chosen,
		NoOp:       ranked.Chosen == 0,
		Generation: gen,
	}
	if resp.NoOp {
		s.noops.Add(1)
	} else {
		// A flip action is named by its flip's hint-file form.
		resp.Flip = actions[ranked.Chosen].ID
	}
	return resp, nil
}

// rankScratch is what one bandit decision featurizes into. The bandit
// copies what it logs before Rank returns, and the flip name read from
// the actions is a string of the catalog's action table, so nothing of
// the scratch outlives rankTraced. A span has at most rules.NumRules
// bits, which bounds both slices.
type rankScratch struct {
	ids     []uint64
	actions []bandit.Action
}

var rankScratches = sync.Pool{New: func() any { return new(rankScratch) }}

// Stats assembles the complete stats document — the /v2/stats body
// minus the request ID. Incident captures snapshot the same document
// into the bundle's stats.json.
func (s *Server) Stats() api.StatsResponse {
	var walStats *api.WALStats
	if s.wal != nil {
		ws := s.wal.Stats()
		walStats = &api.WALStats{
			Mode:              ws.Mode,
			FirstLSN:          ws.FirstLSN,
			LastLSN:           ws.LastLSN,
			SyncedLSN:         ws.SyncedLSN,
			Appends:           ws.Appends,
			AppendedBytes:     ws.AppendedBytes,
			Syncs:             ws.Syncs,
			Segments:          ws.Segments,
			TruncatedSegments: ws.TruncatedSegs,
			Checkpoints:       s.checkpoints.Load(),
			LastCheckpointLSN: s.lastCkptLSN.Load(),
			LastCheckpointB:   s.lastCkptBytes.Load(),
			LastCheckpointUs:  s.lastCkptMicros.Load(),
		}
	}
	return api.StatsResponse{
		UptimeSec:    time.Since(s.start).Seconds(),
		RankRequests: s.rankRequests.Load(),
		HintHits:     s.hintHits.Load(),
		BanditRanks:  s.banditRanks.Load(),
		NoOps:        s.noops.Load(),
		CacheSize:    s.cache.Size(),
		CacheGen:     s.cache.Generation(),
		BanditLog:    int64(s.bandit.LogSize()),
		Ingest:       s.ingest.Stats(),
		WAL:          walStats,
		Replication:  s.replicationStats(),
		Audit:        s.auditStats(),
		Traces:       s.traceStats(),
		Incidents:    s.incidents.stats(),
		Routes:       s.http.routeMetrics(),
		Stages:       s.stageSummaries(),
		Version:      &s.version,
		Drift:        s.DriftStats(driftStatsTemplates),
		SLO:          s.sloStats(),
	}
}

// traceStats assembles the /v2/stats traces block.
func (s *Server) traceStats() *api.TraceStats {
	fs := s.flight.Stats()
	return &api.TraceStats{
		Retained:        fs.Retained,
		Capacity:        fs.Capacity,
		RetainedTotal:   fs.RetainedSlow + fs.RetainedError,
		RetainedSlow:    fs.RetainedSlow,
		RetainedError:   fs.RetainedError,
		Evicted:         fs.Evicted,
		ThresholdMicros: fs.Threshold.Microseconds(),
	}
}

// replicationStats reports the node's cluster role: the tailer's view
// on a follower it constructed, primary counters when a WAL makes this
// node shippable, nothing for a standalone in-memory server.
func (s *Server) replicationStats() *api.ReplicationStats {
	if s.tail != nil {
		r := s.tail.Stats()
		return &r
	}
	if s.follower {
		// Follower embedded without a tailer.
		return &api.ReplicationStats{Role: api.RoleFollower, LeaderURL: s.leaderURL}
	}
	if s.wal != nil {
		return &api.ReplicationStats{Role: api.RolePrimary, ReplicationPrimary: api.ReplicationPrimary{
			Followers:      int(s.walStreams.Load()),
			StreamsServed:  s.walStreamsTotal.Load(),
			RecordsShipped: s.walRecsShipped.Load(),
			BytesShipped:   s.walBytesShipped.Load(),
		}}
	}
	return nil
}

// followerStaleAfter is how long a follower's replication tail may be
// silent before /v2/healthz degrades. A healthy follower touches its
// tail at least every long-poll window (10s default) even when the
// primary is idle, so a minute of silence means the primary is gone or
// unreachable and the replica is serving increasingly stale state.
const followerStaleAfter = time.Minute

// Health snapshots the cheap liveness view served by /v2/healthz. On a
// follower it degrades (HTTP 503 on the wire) once the replication
// tail has been silent past followerStaleAfter, so load balancers
// gating on healthz eject stale replicas instead of serving them.
func (s *Server) Health() api.HealthResponse {
	ing := s.ingest.Stats()
	status := api.HealthOK
	if s.follower && s.tail != nil && s.tail.Stats().LastTailSec > followerStaleAfter.Seconds() {
		status = api.HealthDegraded
	}
	return api.HealthResponse{
		Status:     status,
		Generation: s.cache.Generation(),
		UptimeSec:  time.Since(s.start).Seconds(),
		Hints:      s.cache.Size(),
		QueueDepth: ing.QueueDepth,
		QueueCap:   ing.QueueCap,
	}
}

// SnapshotTo streams the learner's persisted form (bandit.Save).
func (s *Server) SnapshotTo(w io.Writer) error { return s.bandit.Save(w) }

// CheckpointInfo reports one checkpoint's outcome.
type CheckpointInfo struct {
	// Bytes is the snapshot size written.
	Bytes int64
	// LSN is the WAL watermark the snapshot covers (0 without a WAL).
	LSN uint64
	// SegmentsRemoved counts WAL segments compacted away. Their files
	// are unlinked by the journal's reclaimer after Checkpoint returns.
	SegmentsRemoved int
	// Duration is the end-to-end checkpoint time, including the barrier
	// and not the unlinks of the compacted segments.
	Duration time.Duration
}

// Checkpoint persists the model to path atomically and, when a WAL is
// attached, runs the full durability barrier first: reward intake is
// fenced, the queue drains, a train mark flushes pending telemetry
// into the weights, and the snapshot records the WAL watermark it
// covers — so recovery replays only the suffix. Sealed segments wholly
// below the watermark are then detached from the journal (snapshot
// compaction); the journal unlinks their files in the background.
//
// This is the one snapshot entry point for recovery-grade state:
// SIGTERM, qoserved's five-minute checkpoint ticker, and
// POST /v2/model/snapshot all land here.
func (s *Server) Checkpoint(path string) (CheckpointInfo, error) {
	start := time.Now()
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	var info CheckpointInfo
	var buf bytes.Buffer
	var fsys wal.FS = wal.OS{}
	if s.wal != nil {
		fsys = s.wal.FS()
		if err := s.checkpointBarrier(&buf); err != nil {
			return info, err
		}
	} else {
		if err := s.bandit.Save(&buf); err != nil {
			return info, err
		}
	}
	if err := wal.WriteFileAtomic(fsys, path, buf.Bytes()); err != nil {
		return info, err
	}
	info.Bytes = int64(buf.Len())
	if s.wal != nil {
		info.LSN = s.bandit.WALWatermark()
		info.SegmentsRemoved = s.wal.TruncateBefore(info.LSN)
	}
	info.Duration = time.Since(start)
	s.stages.checkpoint.Observe(info.Duration)
	s.checkpoints.Add(1)
	s.lastCkptLSN.Store(info.LSN)
	s.lastCkptBytes.Store(info.Bytes)
	s.lastCkptMicros.Store(info.Duration.Microseconds())
	return info, nil
}

// BootstrapSnapshot writes a checkpoint-consistent model snapshot for
// a joining follower and returns the WAL watermark it covers: the full
// checkpoint barrier runs (intake fenced, queue drained, training
// flushed, watermark fixed under the rank lock) so the bytes are
// exactly the state at the watermark — tailing the journal from there
// replays no record twice and misses none. The live hint table is
// re-journaled above the watermark, so the follower's very first tail
// batch delivers the hints; nothing is written to disk and no segments
// are truncated (bootstraps must not race compaction decisions).
func (s *Server) BootstrapSnapshot(w io.Writer) (uint64, error) {
	buf, wm, err := s.bootstrapSnapshot()
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	return wm, nil
}

// bootstrapSnapshot runs BootstrapSnapshot's checkpoint barrier and
// returns the buffered snapshot. The barrier runs under snapMu, but
// the caller's network write does not: a follower on a slow link must
// not wedge checkpoints and other bootstraps behind the mutex for the
// length of the transfer. Splitting the buffer from the write also
// lets the HTTP handler report barrier failures as error envelopes —
// no response byte has been committed yet.
func (s *Server) bootstrapSnapshot() (*bytes.Buffer, uint64, error) {
	if s.wal == nil {
		return nil, 0, errWALDisabled()
	}
	var buf bytes.Buffer
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if err := s.checkpointBarrier(&buf); err != nil {
		return nil, 0, err
	}
	return &buf, s.bandit.WALWatermark(), nil
}

// checkpointBarrier is the durability barrier shared by Checkpoint and
// the follower bootstrap; callers hold snapMu. Reward intake is fenced,
// the queue drains, a train mark flushes pending telemetry into the
// weights, and the snapshot written to buf records the WAL watermark it
// covers.
func (s *Server) checkpointBarrier(buf *bytes.Buffer) error {
	release := s.ingest.Quiesce()
	s.ingest.trainFlush()
	err := s.bandit.CheckpointTo(buf)
	release()
	if err != nil {
		return err
	}
	// Re-journal the live hint table ABOVE the watermark the snapshot
	// just fixed: the model snapshot carries no hints, so the journal
	// suffix must always hold the table's latest copy — for the crash
	// restart that replays the suffix, for the follower whose first tail
	// batch delivers it, and for the segments compaction is about to
	// delete.
	if err := s.journalHints(); err != nil {
		return err
	}
	// Same re-journal for the quarantine table: its only durable copy
	// lives in the journal.
	if err := s.guard.journalState(); err != nil {
		return err
	}
	// Make the journal durable up to the watermark (covers the train
	// mark) before the snapshot that claims to supersede it can be
	// promoted or shipped.
	return s.wal.Sync()
}

// Package api defines the versioned wire protocol of QO-Advisor's
// online steering service: every request and response type the HTTP
// surface speaks, a structured error envelope with machine-readable
// codes, and the batch /v2 shapes. The package is the single contract
// shared by the server (internal/serve), the typed Go client
// (internal/api/client), the CLI, and the examples — it depends only on
// the standard library so any binary can embed it.
//
// There is one protocol version, /v2: batch-first (/v2/rank,
// /v2/reward), with every JSON response carrying the request ID
// assigned (or propagated) by the server.
//
// The wire format is JSON throughout, exactly as encoding/json writes
// and reads it. Most types go through encoding/json's reflection. The
// four bodies of the two hot routes — BatchRankRequest,
// BatchRankResponse, BatchRewardRequest, BatchRewardResponse — and
// their elements (RankRequest, RankResult, RewardEvent, RewardRejection,
// Error, TemplateHash) have a hand-written codec in codec.go instead:
// AppendJSON appends a body to a caller-owned buffer, a Decoder decodes
// one from a byte slice, and both are what the server's handlers and the
// client's RankBatch/RewardBatch call. The same types' MarshalJSON and
// UnmarshalJSON delegate to that codec, so json.Marshal and
// json.Unmarshal of them run the same code; there is no second
// implementation to drift. The bytes are unchanged: field order,
// omitempty, float form and string escaping out, unknown keys,
// case-folded names, null and repeated keys in.
//
// Adding a field to one of those types is one change in three places:
// the codec (its append function, its name table and its decode
// switch), the reflection mirror struct in codec_test.go that the
// differential tests decode and encode beside it, and a seed under
// testdata/fuzz/ that carries the field.
package api

import (
	"fmt"
	"net/http"

	"qoadvisor/internal/obs"
)

// Route paths. Clients should use these constants rather than spelling
// paths so protocol moves stay one-line changes.
const (
	RouteV2Rank    = "/v2/rank"
	RouteV2Reward  = "/v2/reward"
	RouteV2Healthz = "/v2/healthz"
	RouteV2Stats   = "/v2/stats"
	RouteV2Version = "/v2/version"

	// RouteV2Hints installs a hint table from a SIS exchange-format body
	// (POST, primary only). RouteV2Snapshot streams the model's persisted
	// form on GET and persists it to the configured path on POST.
	RouteV2Hints    = "/v2/hints"
	RouteV2Snapshot = "/v2/model/snapshot"

	// RouteV2Quarantine is the drift-safeguard admin surface: GET lists
	// the durable quarantine table (any node), POST applies a manual
	// quarantine or restore (primary only; journaled like a detector
	// transition, so it replicates and survives restarts).
	RouteV2Quarantine = "/v2/quarantine"

	// RouteMetrics is the Prometheus text-format exposition endpoint.
	// Unversioned by convention: scrapers expect exactly "/metrics".
	RouteMetrics = "/metrics"

	// Replication surface (primary only). RouteV2WAL streams framed
	// journal records from ?from=<lsn> with a long-poll tail;
	// RouteV2WALSnapshot streams a checkpoint-consistent model snapshot
	// whose embedded watermark is where a follower starts tailing.
	RouteV2WAL         = "/v2/wal"
	RouteV2WALSnapshot = "/v2/wal/snapshot"

	// Audit surface (WAL-backed nodes, read-only). RouteV2AuditRecords
	// lists journal records matching filter query parameters;
	// RouteV2AuditDecision reconstructs one event's decision trace;
	// RouteV2AuditTemplate returns a template's steering history;
	// RouteV2AuditAsOf summarizes a point-in-time model reconstruction.
	RouteV2AuditRecords  = "/v2/audit/records"
	RouteV2AuditDecision = "/v2/audit/decision"
	RouteV2AuditTemplate = "/v2/audit/template"
	RouteV2AuditAsOf     = "/v2/audit/asof"

	// Flight-recorder surface (any node). RouteV2Traces queries the
	// tail-retained slow-trace ring as Chrome-trace JSON (filters:
	// ?route=&min_ms=&limit=). RouteV2Incidents lists captured
	// diagnostic bundles on GET and triggers a manual capture on POST;
	// one bundle is fetched at /v2/incidents/{id}, and ?file=<name>
	// streams a single bundle artifact (profiles, stats, traces).
	RouteV2Traces    = "/v2/traces"
	RouteV2Incidents = "/v2/incidents"
)

// RequestIDHeader carries the request ID on every instrumented route.
// Clients may set it to propagate their own correlation ID; the server
// echoes it back, or assigns one when absent.
const RequestIDHeader = "X-Request-Id"

// MaxRankBatch bounds the job count of one BatchRankRequest. Larger
// batches are rejected with CodeInvalidRequest rather than silently
// truncated.
const MaxRankBatch = 4096

// MaxRewardBatch bounds the event count of one BatchRewardRequest.
const MaxRewardBatch = 8192

// TemplateHash is a 64-bit job-template hash. On the wire it travels as
// a 16-digit hex string — 64-bit integers do not survive JSON number
// decoding in every client — matching the SIS exchange format.
type TemplateHash uint64

// String renders the canonical wire form.
func (h TemplateHash) String() string {
	var b [16]byte
	return string(AppendHex(b[:0], uint64(h), 16))
}

// RankRequest is one steering query: "which rule flip for this job?".
// Span carries the job span's bit positions; RowCount and BytesRead are
// the coarse input-stream features of the paper's featurization.
type RankRequest struct {
	TemplateHash TemplateHash `json:"templateHash"`
	TemplateID   string       `json:"templateId,omitempty"`
	Span         []int        `json:"span"`
	RowCount     float64      `json:"rowCount,omitempty"`
	BytesRead    float64      `json:"bytesRead,omitempty"`
}

// RankResponse is the steering decision. Source "hint" means the hint
// table had a validated hint for the template (the production fast path:
// no bandit call, no event logged). Source "bandit" means the learner
// picked an action and logged a rank event awaiting a reward. Generation
// is the generation of the table that answered — the one the hint came
// from, or the one that missed.
type RankResponse struct {
	Source     string  `json:"source"`
	Flip       string  `json:"flip,omitempty"`
	NoOp       bool    `json:"noop"`
	EventID    string  `json:"eventId,omitempty"`
	Prob       float64 `json:"prob,omitempty"`
	Chosen     int     `json:"chosen,omitempty"`
	HintDay    int     `json:"hintDay,omitempty"`
	Generation uint64  `json:"generation"`
}

// Rank decision sources.
const (
	SourceHint   = "hint"
	SourceBandit = "bandit"
)

// BatchRankRequest is the /v2/rank payload: up to MaxRankBatch jobs
// steered in one call, fanned out over the server's worker pool.
type BatchRankRequest struct {
	Jobs []RankRequest `json:"jobs"`
}

// RankResult is one job's outcome inside a batch: either a decision or
// a per-job error (the batch itself still returns 200 — one malformed
// job must not void its neighbors' decisions).
type RankResult struct {
	RankResponse
	Error *Error `json:"error,omitempty"`
}

// BatchRankResponse answers /v2/rank. Results align index-for-index
// with the submitted jobs.
type BatchRankResponse struct {
	RequestID  string       `json:"requestId"`
	Generation uint64       `json:"generation"`
	Results    []RankResult `json:"results"`
}

// RewardEvent is one telemetry observation: the reward earned by a
// previously ranked event. Reward is a pointer so "field absent" is
// distinguishable from a legitimate 0.0 reward.
//
// TemplateHash, when present, attributes the reward to a job template
// for the drift safeguard — the only reward path that exists for
// hint-served decisions, which log no rank event and so have no
// EventID. An event may carry either or both: EventID feeds the
// learner, TemplateHash feeds drift detection. A template-only event
// is observed but not queued (it trains nothing).
type RewardEvent struct {
	EventID      string        `json:"eventId,omitempty"`
	Reward       *float64      `json:"reward"`
	TemplateHash *TemplateHash `json:"templateHash,omitempty"`
}

// BatchRewardRequest is the /v2/reward payload: a batch of telemetry
// events fed to the ingestion queue in one call.
type BatchRewardRequest struct {
	Events []RewardEvent `json:"events"`
}

// RewardRejection reports one event of a batch that was not queued,
// with the index it held in the request.
type RewardRejection struct {
	Index   int    `json:"index"`
	EventID string `json:"eventId"`
	Error   Error  `json:"error"`
}

// BatchRewardResponse answers /v2/reward. Queued counts events accepted
// into the ingestion queue; Rejected lists the rest with per-event
// errors. When nothing was queued and backpressure (CodeQueueFull) was
// among the rejection reasons, the response status is 503 so clients
// retry the whole batch (safe: no event was accepted, and other
// rejections re-reject deterministically); any partial acceptance
// returns 202.
type BatchRewardResponse struct {
	RequestID  string            `json:"requestId"`
	Generation uint64            `json:"generation"`
	Queued     int               `json:"queued"`
	Rejected   []RewardRejection `json:"rejected,omitempty"`
	// Observed counts events whose reward fed the drift safeguard
	// (events carrying a templateHash). Additive; 0 when detection is
	// off or no event carried a template.
	Observed int `json:"observed,omitempty"`
}

// QuarantineRequest is the POST /v2/quarantine payload: a manual
// safeguard override for one template.
type QuarantineRequest struct {
	TemplateHash TemplateHash `json:"templateHash"`
	// Action is "quarantine" (refuse the template's hint) or "restore"
	// (force it healthy, skipping probation).
	Action string `json:"action"`
}

// Quarantine actions.
const (
	QuarantineActionQuarantine = "quarantine"
	QuarantineActionRestore    = "restore"
)

// QuarantineResponse answers POST /v2/quarantine with the committed
// transition.
type QuarantineResponse struct {
	RequestID    string       `json:"requestId"`
	TemplateHash TemplateHash `json:"templateHash"`
	From         string       `json:"from"`
	To           string       `json:"to"`
}

// QuarantineEntry is one durable quarantine-table row.
type QuarantineEntry struct {
	TemplateHash TemplateHash `json:"templateHash"`
	State        string       `json:"state"`
}

// QuarantineListResponse answers GET /v2/quarantine: the node's
// durable quarantine table (identical on a caught-up follower).
type QuarantineListResponse struct {
	RequestID string            `json:"requestId"`
	Templates []QuarantineEntry `json:"templates"`
}

// HintsInstallResponse answers POST /v2/hints (the pipeline rollover).
type HintsInstallResponse struct {
	Installed  int    `json:"installed"`
	Day        int    `json:"day"`
	Generation uint64 `json:"generation"`
}

// SnapshotSaveResponse answers POST /v2/model/snapshot.
type SnapshotSaveResponse struct {
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// IngestStats is a point-in-time snapshot of the reward-ingestion
// counters, embedded in StatsResponse.
type IngestStats struct {
	Enqueued      int64 `json:"enqueued" metric:"qoserved_ingest_enqueued_total" help:"Rewards accepted into the ingestion queue."`
	Dropped       int64 `json:"dropped" metric:"qoserved_ingest_dropped_total" help:"Rewards rejected for backpressure or shutdown."`
	Applied       int64 `json:"applied" metric:"qoserved_ingest_applied_total" help:"Rewards applied to the learner."`
	UnknownEvents int64 `json:"unknownEvents" metric:"qoserved_ingest_unknown_events_total" help:"Rewards naming no logged rank event."`
	TrainRuns     int64 `json:"trainRuns" metric:"qoserved_ingest_train_runs_total" help:"Training passes run."`
	TrainedEvents int64 `json:"trainedEvents" metric:"qoserved_ingest_trained_events_total" help:"Events consumed by training passes."`
	QueueDepth    int   `json:"queueDepth" metric:"qoserved_ingest_queue_depth" help:"Rewards waiting in the ingestion queue."`
	QueueCap      int   `json:"queueCap" metric:"qoserved_ingest_queue_capacity" help:"Ingestion queue capacity."`
	// JournalErrors counts failed durable-journal writes (0 when the
	// server runs without a WAL).
	JournalErrors int64 `json:"journalErrors,omitempty" metric:"qoserved_ingest_journal_errors_total" help:"Failed durable-journal writes."`
}

// WALStats is a point-in-time snapshot of the durable reward journal,
// embedded in StatsResponse when the server runs with a WAL. Mode is
// the group-commit durability discipline ("sync", "async", or "off");
// LSNs are journal positions (FirstLSN..LastLSN is the retained
// window — FirstLSN is LastLSN+1 when compaction has left nothing, or
// nothing was ever written — and SyncedLSN the durable frontier).
type WALStats struct {
	Mode              string `json:"mode"`
	FirstLSN          uint64 `json:"firstLsn" metric:"qoserved_wal_first_lsn" help:"Oldest retained journal position (last LSN + 1 when nothing is retained)."`
	LastLSN           uint64 `json:"lastLsn" metric:"qoserved_wal_last_lsn" help:"Newest appended journal position."`
	SyncedLSN         uint64 `json:"syncedLsn" metric:"qoserved_wal_synced_lsn" help:"Durable journal frontier."`
	Appends           int64  `json:"appends" metric:"qoserved_wal_appends_total" help:"Journal records appended."`
	AppendedBytes     int64  `json:"appendedBytes" metric:"qoserved_wal_appended_bytes_total" help:"Journal bytes appended."`
	Syncs             int64  `json:"syncs" metric:"qoserved_wal_syncs_total" help:"Journal fsync batches."`
	Segments          int    `json:"segments" metric:"qoserved_wal_segments" help:"Journal segment files on disk."`
	TruncatedSegments int64  `json:"truncatedSegments" metric:"qoserved_wal_truncated_segments_total" help:"Segments removed by snapshot compaction."`
	Checkpoints       int64  `json:"checkpoints" metric:"qoserved_checkpoints_total" help:"Checkpoints taken."`
	LastCheckpointLSN uint64 `json:"lastCheckpointLsn" metric:"qoserved_checkpoint_last_lsn" help:"Journal watermark of the last checkpoint."`
	LastCheckpointB   int64  `json:"lastCheckpointBytes" metric:"qoserved_checkpoint_last_bytes" help:"Snapshot size of the last checkpoint."`
	LastCheckpointUs  int64  `json:"lastCheckpointMicros" metric:"qoserved_checkpoint_last_duration_seconds" help:"End-to-end duration of the last checkpoint."`
}

// Replication roles, as reported in ReplicationStats.Role.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ReplicationStats describes a node's place in a WAL-shipped serving
// cluster, embedded in StatsResponse. A primary (a WAL-backed server)
// reports how many followers are tailing it and how much log it has
// shipped; a follower reports how far it has applied, its lag behind
// the primary frontier it last observed, and the age of its last tail
// activity.
type ReplicationStats struct {
	Role string `json:"role" metric:"qoserved_replication_info"`
	// LeaderURL is where writes must go (set on followers; it is the
	// same URL carried by not_primary error envelopes).
	LeaderURL string `json:"leaderUrl,omitempty" metric:"qoserved_replication_info"`
	ReplicationPrimary
	ReplicationFollower
}

// ReplicationPrimary holds a primary's replication counters; /metrics
// renders them on a primary only. BytesShipped counts journal bytes as
// stored: 8 + payload per record, plus a 16-byte segment header per
// stream.
type ReplicationPrimary struct {
	Followers      int   `json:"followers" metric:"qoserved_replication_followers" help:"Follower streams currently attached."`
	StreamsServed  int64 `json:"streamsServed,omitempty" metric:"qoserved_replication_streams_served_total" help:"WAL streams served."`
	RecordsShipped int64 `json:"recordsShipped,omitempty" metric:"qoserved_replication_records_shipped_total" help:"Journal records shipped to followers."`
	BytesShipped   int64 `json:"bytesShipped,omitempty" metric:"qoserved_replication_bytes_shipped_total" help:"Journal bytes shipped to followers: 8 + payload per record, plus a 16-byte segment header per stream."`
}

// ReplicationFollower holds a follower's replication counters; /metrics
// renders them on a follower only. AppliedLSN is the newest journal
// record applied locally; FrontierLSN is the newest durable primary LSN
// the follower has observed; LagRecords is their difference.
type ReplicationFollower struct {
	AppliedLSN     uint64  `json:"appliedLsn,omitempty" metric:"qoserved_replication_applied_lsn" help:"Newest journal record applied locally."`
	FrontierLSN    uint64  `json:"frontierLsn,omitempty" metric:"qoserved_replication_frontier_lsn" help:"Newest durable primary position observed."`
	LagRecords     int64   `json:"lagRecords" metric:"qoserved_replication_lag_records" help:"Records behind the observed primary frontier."`
	LastTailSec    float64 `json:"lastTailSec,omitempty" metric:"qoserved_replication_last_tail_seconds" help:"Seconds since the last tail activity."`
	RecordsApplied int64   `json:"recordsApplied,omitempty" metric:"qoserved_replication_records_applied_total" help:"Journal records applied since start."`
	Reconnects     int64   `json:"reconnects,omitempty" metric:"qoserved_replication_reconnects_total" help:"Tail stream reconnects."`
	Resyncs        int64   `json:"resyncs,omitempty" metric:"qoserved_replication_resyncs_total" help:"Full re-bootstraps."`
}

// Hist carries a latency histogram's raw log₂ buckets on the wire
// (bucket i holds durations of nanosecond bit-length i, matching
// internal/obs). Percentile summaries cannot be merged across nodes —
// a p99 of p99s is not a fleet p99 — so /v2/stats additionally ships
// the buckets themselves, letting fleet tooling rebuild and merge the
// underlying distributions exactly.
type Hist struct {
	Count    uint64   `json:"count"`
	SumNanos uint64   `json:"sumNanos"`
	Buckets  []uint64 `json:"buckets"`
}

// Snapshot rebuilds the histogram from its wire form, for fleet
// merging and the /metrics exposition. A missing histogram (a node
// predating the field) is an empty one.
func (h *Hist) Snapshot() obs.HistSnapshot {
	if h == nil {
		return obs.HistSnapshot{}
	}
	return obs.SnapshotFromParts(h.SumNanos, h.Buckets)
}

// RouteStats aggregates the middleware's per-route counters. The
// percentile fields are estimated from a log₂-bucketed latency
// histogram (one bucket spans a doubling, so estimates are exact to
// within one bucket); they are 0 until the route has served a request.
// Errors counts answers with status >= 400, Status5xx those >= 500 (the
// availability objective's error input).
type RouteStats struct {
	Count       int64 `json:"count" metric:"qoserved_http_requests_total"`
	Errors      int64 `json:"errors" metric:"qoserved_http_request_errors_total"`
	Status5xx   int64 `json:"status5xx" metric:"qoserved_http_request_5xx_total"`
	TotalMicros int64 `json:"totalMicros" metric:"qoserved_http_request_duration_seconds"`
	MaxMicros   int64 `json:"maxMicros" metric:"qoserved_http_request_duration_seconds"`
	P50Micros   int64 `json:"p50Micros" metric:"qoserved_http_request_duration_seconds"`
	P90Micros   int64 `json:"p90Micros" metric:"qoserved_http_request_duration_seconds"`
	P99Micros   int64 `json:"p99Micros" metric:"qoserved_http_request_duration_seconds"`
	P999Micros  int64 `json:"p999Micros" metric:"qoserved_http_request_duration_seconds"`
	// Hist is the route's raw latency histogram, the mergeable source
	// the percentiles above were estimated from.
	Hist *Hist `json:"hist,omitempty" metric:"qoserved_http_request_duration_seconds"`
}

// LatencySummary reports one instrumented stage's latency
// distribution (percentiles estimated from log₂ buckets), embedded in
// StatsResponse.Stages under stable stage names (rank_hint_lookup,
// rank_bandit, reward_wal_append, reward_commit_wait,
// reward_queue_wait, reward_apply, wal_fsync, checkpoint,
// replication_apply).
type LatencySummary struct {
	Count      int64 `json:"count" metric:"qoserved_stage_duration_seconds"`
	MeanMicros int64 `json:"meanMicros" metric:"qoserved_stage_duration_seconds"`
	P50Micros  int64 `json:"p50Micros" metric:"qoserved_stage_duration_seconds"`
	P90Micros  int64 `json:"p90Micros" metric:"qoserved_stage_duration_seconds"`
	P99Micros  int64 `json:"p99Micros" metric:"qoserved_stage_duration_seconds"`
	P999Micros int64 `json:"p999Micros" metric:"qoserved_stage_duration_seconds"`
	// Hist is the stage's raw latency histogram (additive), the
	// mergeable source of the percentiles above.
	Hist *Hist `json:"hist,omitempty" metric:"qoserved_stage_duration_seconds"`
}

// VersionInfo identifies a running node's build: module version,
// toolchain, and VCS metadata when the binary was built from a
// checkout. Embedded in StatsResponse and served by /v2/version.
type VersionInfo struct {
	Module    string `json:"module,omitempty" metric:"qoserved_build_info"`
	Version   string `json:"version" metric:"qoserved_build_info"`
	GoVersion string `json:"goVersion" metric:"qoserved_build_info"`
	Revision  string `json:"revision,omitempty" metric:"qoserved_build_info"`
	BuildTime string `json:"buildTime,omitempty"`
	Modified  bool   `json:"modified,omitempty" metric:"-"`
}

// VersionResponse answers GET /v2/version.
type VersionResponse struct {
	VersionInfo
	RequestID string `json:"requestId,omitempty"`
}

// StatsResponse answers /v2/stats. It is also the declaration of every
// qoserved_* series on /metrics: a field's metric tag names the family
// that carries it (a string as a label), or is "-" for a number no
// family carries. A field with a help tag is a plain series of its own
// — a counter when its name ends in _total, a gauge otherwise, a
// …Micros field in seconds, a bool as 0/1 — which internal/serve
// renders from the tags; a field without one belongs to a labeled
// family rendered in code. An embedded struct groups the fields that
// render only on some nodes.
type StatsResponse struct {
	UptimeSec    float64     `json:"uptimeSec" metric:"qoserved_uptime_seconds" help:"Seconds since the server started."`
	RankRequests int64       `json:"rankRequests" metric:"qoserved_rank_requests_total" help:"Rank decisions requested."`
	HintHits     int64       `json:"hintHits" metric:"qoserved_rank_hint_hits_total" help:"Ranks answered from the hint cache."`
	BanditRanks  int64       `json:"banditRanks" metric:"qoserved_rank_bandit_total" help:"Ranks answered by the bandit policy."`
	NoOps        int64       `json:"noops" metric:"qoserved_rank_noops_total" help:"Bandit ranks that chose the no-op action."`
	CacheSize    int         `json:"cacheSize" metric:"qoserved_hint_cache_entries" help:"Hints in the serving cache."`
	CacheGen     uint64      `json:"cacheGeneration" metric:"qoserved_hint_cache_generation" help:"Hint-table generation."`
	BanditLog    int64       `json:"banditLogSize" metric:"qoserved_bandit_log_events" help:"Rank events retained awaiting rewards."`
	Ingest       IngestStats `json:"ingest"`
	// WAL is present when the server journals rewards durably.
	WAL *WALStats `json:"wal,omitempty"`
	// Replication is present on cluster nodes: a WAL-backed primary or a
	// log-tailing follower.
	Replication *ReplicationStats `json:"replication,omitempty"`

	RequestID string                `json:"requestId,omitempty"`
	Routes    map[string]RouteStats `json:"routes,omitempty"`
	// Stages reports per-stage latency distributions from the serving
	// path instrumentation.
	Stages map[string]LatencySummary `json:"stages,omitempty"`
	// Version identifies the node's build.
	Version *VersionInfo `json:"version,omitempty"`
	// Drift reports the drift-safeguard state.
	Drift *DriftStats `json:"drift,omitempty"`
	// Audit reports the journal-audit engine's counters (present once
	// an audit query has run on this node).
	Audit *AuditStats `json:"audit,omitempty"`
	// SLO reports the node's service-level objectives and their rolling
	// error-budget burn rates.
	SLO *SLOStats `json:"slo,omitempty"`
	// Traces reports the flight recorder's retention counters.
	Traces *TraceStats `json:"traces,omitempty"`
	// Incidents reports the incident engine's trigger and capture
	// counters (present when -incident-dir is set).
	Incidents *IncidentStats `json:"incidents,omitempty"`
}

// TraceStats is the traces block of /v2/stats: the flight recorder's
// retention ring.
type TraceStats struct {
	// Retained / Capacity describe the ring's current occupancy.
	Retained int `json:"retained" metric:"qoserved_trace_ring_size" help:"Traces currently retained."`
	Capacity int `json:"capacity" metric:"qoserved_trace_ring_capacity" help:"Retained-ring capacity."`
	// RetainedTotal is the lifetime retention count; the per-reason
	// counters below sum to it.
	RetainedTotal int64 `json:"retainedTotal" metric:"qoserved_trace_retained_total"`
	RetainedSlow  int64 `json:"retainedSlow" metric:"qoserved_trace_retained_total"`
	RetainedError int64 `json:"retainedError" metric:"qoserved_trace_retained_total"`
	// Evicted counts retained traces pushed out of the ring by newer
	// ones.
	Evicted int64 `json:"evicted" metric:"qoserved_trace_evicted_total" help:"Retained traces pushed out of the ring by newer ones."`
	// ThresholdMicros is the default slow-retention cutoff.
	ThresholdMicros int64 `json:"thresholdMicros" metric:"qoserved_trace_retain_threshold_seconds" help:"Default slow-retention latency cutoff."`
}

// TraceEvent is one span in Chrome trace-event format ("X" complete
// events; ts/dur in microseconds relative to the recorder's epoch).
// The field set matches what chrome://tracing and Perfetto load.
type TraceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// TraceMeta summarizes one retained trace in a /v2/traces answer.
type TraceMeta struct {
	Seq       uint64  `json:"seq"`
	Route     string  `json:"route"`
	RequestID string  `json:"requestId,omitempty"`
	Reason    string  `json:"reason"`
	Status    int     `json:"status,omitempty"`
	StartUnix float64 `json:"startUnixSec"`
	DurMicros int64   `json:"durMicros"`
	Events    int     `json:"events"`
}

// TracesResponse answers GET /v2/traces. TraceEvents uses the Chrome
// trace-event object form — the whole response body loads directly in
// chrome://tracing or Perfetto (extra keys are ignored there); each
// retained trace renders as its own process (pid = retention seq).
type TracesResponse struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
	Traces      []TraceMeta  `json:"traces"`
	RequestID   string       `json:"requestId,omitempty"`
}

// IncidentStats is the incidents block of /v2/stats.
type IncidentStats struct {
	Enabled bool `json:"enabled" metric:"qoserved_incident_enabled" help:"1 when the incident engine is capturing to -incident-dir."`
	// Count is the number of bundles on disk (including ones found at
	// startup from earlier runs).
	Count int64 `json:"count" metric:"qoserved_incident_bundles" help:"Diagnostic bundles currently on disk."`
	// Triggered / Captured / Suppressed: trigger firings, bundles
	// actually written, and firings swallowed by the cooldown.
	Triggered  int64 `json:"triggered" metric:"qoserved_incident_triggered_total" help:"Incident trigger firings (burn, quarantine, wal, manual)."`
	Captured   int64 `json:"captured" metric:"qoserved_incident_captured_total" help:"Diagnostic bundles captured."`
	Suppressed int64 `json:"suppressed" metric:"qoserved_incident_suppressed_total" help:"Trigger firings swallowed by the capture cooldown."`
	// CaptureErrors counts bundle artifacts that failed to write.
	CaptureErrors int64   `json:"captureErrors" metric:"qoserved_incident_capture_errors_total" help:"Bundle artifacts that failed to write."`
	BurnThreshold float64 `json:"burnThreshold" metric:"qoserved_incident_burn_threshold" help:"Shortest-window SLO burn rate that trips the burn trigger."`
	CooldownSec   float64 `json:"cooldownSec" metric:"qoserved_incident_cooldown_seconds" help:"Minimum spacing between captures."`
	IncidentLastBundle
}

// IncidentLastBundle describes the newest bundle; it is absent before
// the first capture, and so are its /metrics gauges.
type IncidentLastBundle struct {
	// LastAgeSec is the age of the newest bundle.
	LastAgeSec float64 `json:"lastAgeSec,omitempty" metric:"qoserved_incident_last_age_seconds" help:"Age of the newest bundle."`
	// LastCaptureMicros is the wall time the newest capture took.
	LastCaptureMicros int64  `json:"lastCaptureMicros,omitempty" metric:"qoserved_incident_last_capture_duration_seconds" help:"Wall time the newest capture took."`
	LastReason        string `json:"lastReason,omitempty"`
	LastID            string `json:"lastId,omitempty"`
}

// IncidentFile is one artifact inside a captured bundle.
type IncidentFile struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
}

// IncidentMeta describes one captured diagnostic bundle (the content
// of its meta.json, which doubles as the listing entry).
type IncidentMeta struct {
	ID string `json:"id"`
	// Reason is the trigger: "burn", "quarantine", "wal", or "manual".
	Reason string `json:"reason"`
	// Detail carries trigger context (objective name and burn rate,
	// template hash, journal error count...).
	Detail   string  `json:"detail,omitempty"`
	UnixNano int64   `json:"unixNano"`
	Time     string  `json:"time"`
	BurnRate float64 `json:"burnRate,omitempty"`
	// CaptureMicros is the wall time the capture took.
	CaptureMicros int64          `json:"captureMicros,omitempty"`
	Files         []IncidentFile `json:"files,omitempty"`
}

// IncidentsResponse answers GET /v2/incidents (newest first).
type IncidentsResponse struct {
	Enabled   bool           `json:"enabled"`
	Incidents []IncidentMeta `json:"incidents"`
	RequestID string         `json:"requestId,omitempty"`
}

// IncidentResponse answers GET /v2/incidents/{id} and POST
// /v2/incidents (manual capture): one bundle's metadata, re-read from
// the bundle's meta.json so a listed-but-deleted bundle 404s.
type IncidentResponse struct {
	Incident  IncidentMeta `json:"incident"`
	RequestID string       `json:"requestId,omitempty"`
}

// SLOWindowStats is one objective's state over one rolling window.
type SLOWindowStats struct {
	// Window is the rolling window ("1m", "5m", "30m").
	Window string `json:"window"`
	// Ops is the operations observed inside the window.
	Ops float64 `json:"ops" metric:"qoserved_slo_window_ops"`
	// Compliance is the achieved good fraction (1 with no traffic).
	Compliance float64 `json:"compliance" metric:"qoserved_slo_compliance_ratio"`
	// BurnRate is the error rate divided by the budgeted error rate:
	// 1.0 spends the budget exactly, >1 burns it faster.
	BurnRate float64 `json:"burnRate" metric:"qoserved_slo_burn_rate"`
	// BudgetRemaining is the unspent fraction of the window's error
	// budget (negative once overspent).
	BudgetRemaining float64 `json:"budgetRemaining" metric:"qoserved_slo_error_budget_remaining"`
}

// SLOObjectiveStats is one declared objective with its multi-window
// burn-rate report.
type SLOObjectiveStats struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Target float64 `json:"target" metric:"qoserved_slo_target"`
	// ThresholdMicros is the latency bound of a latency objective.
	ThresholdMicros int64            `json:"thresholdMicros,omitempty" metric:"qoserved_slo_latency_threshold_seconds"`
	Windows         []SLOWindowStats `json:"windows"`
}

// SLOStats is the slo block of /v2/stats.
type SLOStats struct {
	Objectives []SLOObjectiveStats `json:"objectives"`
}

// AuditStats is the audit block of /v2/stats: cumulative engine
// counters across every query served since the engine was opened.
type AuditStats struct {
	Queries         int64 `json:"queries" metric:"qoserved_audit_queries_total" help:"Audit queries served."`
	SegmentsScanned int64 `json:"segmentsScanned" metric:"qoserved_audit_segments_scanned_total" help:"Journal segments scanned by audit queries."`
	SegmentsSkipped int64 `json:"segmentsSkipped" metric:"qoserved_audit_segments_skipped_total" help:"Journal segments outside an audit query's LSN window, never opened."`
	RecordsScanned  int64 `json:"recordsScanned" metric:"qoserved_audit_records_scanned_total" help:"Journal records scanned by audit queries."`
	RecordsMatched  int64 `json:"recordsMatched" metric:"qoserved_audit_records_matched_total" help:"Journal records matched by audit queries."`
}

// AuditScanStats reports one audit query's scan counters: how many of
// the journal's segments and records it read. Segments are skipped on
// their headers alone, by the LSN window and nothing else (those wholly
// below it, and those past the record the query stopped at), so
// SkippedByLSN equals SegmentsSkipped.
type AuditScanStats struct {
	SegmentsTotal   int64 `json:"segmentsTotal"`
	SegmentsScanned int64 `json:"segmentsScanned"`
	SegmentsSkipped int64 `json:"segmentsSkipped"`
	SkippedByLSN    int64 `json:"skippedByLsn,omitempty"`
	RecordsScanned  int64 `json:"recordsScanned"`
	RecordsMatched  int64 `json:"recordsMatched"`
	// Truncated reports that the scan stopped at a torn tail (the
	// journal's crash artifact) — results cover the intact prefix.
	Truncated bool `json:"truncated,omitempty"`
}

// AuditRecord is one journal record in an audit listing.
type AuditRecord struct {
	LSN     uint64 `json:"lsn"`
	Type    string `json:"type"`
	Summary string `json:"summary"`
	// EventID is set for rank records.
	EventID string `json:"eventId,omitempty"`
}

// AuditRecordsResponse answers GET /v2/audit/records.
type AuditRecordsResponse struct {
	Records []AuditRecord  `json:"records"`
	Scan    AuditScanStats `json:"scan"`
	// Limited reports that the listing stopped at the row limit; narrow
	// the filters or page with fromLsn to see the rest.
	Limited   bool   `json:"limited,omitempty"`
	RequestID string `json:"requestId,omitempty"`
}

// AuditRewardRef is one reward observation in a decision trace.
type AuditRewardRef struct {
	LSN     uint64  `json:"lsn"`
	Value   float64 `json:"value"`
	EventID string  `json:"eventId,omitempty"`
}

// AuditDecisionResponse answers GET /v2/audit/decision: the journaled
// history of one rank decision.
type AuditDecisionResponse struct {
	EventID string `json:"eventId"`
	// Found is false when the journal holds no rank record for the
	// event (never ranked, or compacted away by a checkpoint).
	Found   bool             `json:"found"`
	RankLSN uint64           `json:"rankLsn,omitempty"`
	Prob    float64          `json:"prob,omitempty"`
	CtxIDs  int              `json:"ctxFeatures,omitempty"`
	ActIDs  int              `json:"actFeatures,omitempty"`
	Rewards []AuditRewardRef `json:"rewards,omitempty"`
	// TrainedAtLSN is the first train mark after the last reward: the
	// rewards were weight updates by this LSN at the latest (a
	// count-based training pass is not journaled, so it may have come
	// earlier). 0: no train mark follows.
	TrainedAtLSN uint64 `json:"trainedAtLsn,omitempty"`
	// Lineage lists rewards (newest first, capped) whose events share
	// action features with this decision and were applied before it —
	// the observations behind the weights it was scored with.
	Lineage          []AuditRewardRef `json:"lineage,omitempty"`
	LineageTruncated bool             `json:"lineageTruncated,omitempty"`
	Scan             AuditScanStats   `json:"scan"`
	RequestID        string           `json:"requestId,omitempty"`
}

// AuditTemplateEvent is one change in a template's steering history.
type AuditTemplateEvent struct {
	LSN uint64 `json:"lsn"`
	// Kind is "hint", "hint_removed", "quarantine", or
	// "quarantine_cleared".
	Kind string `json:"kind"`
	Flip string `json:"flip,omitempty"`
	Day  int    `json:"day,omitempty"`
	Gen  uint64 `json:"generation,omitempty"`
	// State is the drift state name for quarantine transitions.
	State string `json:"state,omitempty"`
	// Snapshot marks a checkpoint re-journal rather than a transition.
	Snapshot bool `json:"snapshot,omitempty"`
}

// AuditTemplateResponse answers GET /v2/audit/template.
type AuditTemplateResponse struct {
	TemplateHash TemplateHash         `json:"templateHash"`
	Events       []AuditTemplateEvent `json:"events"`
	// Rollovers/QuarantineRecords count the journal records inspected
	// (each carries a whole table; only changes produce Events).
	Rollovers         int64          `json:"rollovers"`
	QuarantineRecords int64          `json:"quarantineRecords"`
	Scan              AuditScanStats `json:"scan"`
	RequestID         string         `json:"requestId,omitempty"`
}

// AuditReplayStats summarizes what the journal suffix contributed to a
// point-in-time reconstruction.
type AuditReplayStats struct {
	Records       int64 `json:"records"`
	Ranks         int64 `json:"ranks"`
	Rewards       int64 `json:"rewards"`
	TrainMarks    int64 `json:"trainMarks"`
	TrainRuns     int64 `json:"trainRuns"`
	TrainedEvents int64 `json:"trainedEvents"`
}

// AuditAsOfResponse answers GET /v2/audit/asof: a summary of the model
// state reconstructed as of an LSN. The snapshot itself is identified
// by size and digest (byte-identical to a live checkpoint taken at the
// same LSN); the full bytes are an offline `qoserved audit asof`
// operation, not an HTTP payload.
type AuditAsOfResponse struct {
	LSN            uint64 `json:"lsn"`
	SnapshotBytes  int    `json:"snapshotBytes"`
	SnapshotSHA256 string `json:"snapshotSha256"`
	// SnapshotSeeded/FromLSN report whether a checkpoint seeded the
	// replay and from which watermark.
	SnapshotSeeded bool             `json:"snapshotSeeded"`
	FromLSN        uint64           `json:"fromLsn,omitempty"`
	Replay         AuditReplayStats `json:"replay"`
	HintGen        uint64           `json:"hintGeneration,omitempty"`
	Hints          int              `json:"hints,omitempty"`
	Quarantined    int              `json:"quarantined,omitempty"`
	Scan           AuditScanStats   `json:"scan"`
	RequestID      string           `json:"requestId,omitempty"`
}

// DriftTemplateStats is one template's drift view: its state-machine
// position and (on the detecting primary) its streaming statistics.
type DriftTemplateStats struct {
	TemplateHash TemplateHash `json:"templateHash"`
	State        string       `json:"state"`
	Score        float64      `json:"score,omitempty"`
	FastMean     float64      `json:"fastMean,omitempty"`
	SlowMean     float64      `json:"slowMean,omitempty"`
	Observations int64        `json:"observations,omitempty"`
}

// DriftStats is the drift-safeguard block of /v2/stats. Enabled is
// true only on a node running detection (a primary with -drift), the
// only node that fills DriftDetector; enforcement counters
// (BlockedRanks, QuarantinedNow) are live on every node because the
// quarantine table replicates.
type DriftStats struct {
	Enabled bool `json:"enabled" metric:"qoserved_drift_enabled" help:"Whether drift detection runs on this node (enforcement is always on)."`
	DriftDetector
	QuarantinedNow int   `json:"quarantinedNow" metric:"qoserved_quarantine_templates" help:"Templates currently quarantined."`
	ProbationNow   int   `json:"probationNow" metric:"qoserved_quarantine_probation_templates" help:"Templates currently on probation."`
	BlockedRanks   int64 `json:"blockedRanks" metric:"qoserved_quarantine_blocked_ranks_total" help:"Rank requests whose installed hint was refused because the template is quarantined."`
	Transitions    int64 `json:"transitions" metric:"qoserved_quarantine_transitions_total" help:"Committed quarantine state-machine transitions."`
	Quarantines    int64 `json:"quarantines" metric:"qoserved_quarantine_entered_total" help:"Transitions into quarantine."`
	Probations     int64 `json:"probations" metric:"qoserved_quarantine_probations_total" help:"Transitions from quarantine into probation."`
	Restores       int64 `json:"restores" metric:"qoserved_quarantine_restores_total" help:"Transitions back to healthy."`
	Manual         int64 `json:"manualTransitions,omitempty" metric:"qoserved_quarantine_manual_total" help:"Operator-initiated transitions (POST /v2/quarantine)."`
	JournalErrs    int64 `json:"journalErrors,omitempty" metric:"qoserved_quarantine_journal_errors_total" help:"Quarantine transitions rejected because the journal append failed."`
	// Templates lists non-healthy templates (every node) plus the
	// worst-scoring tracked ones (detecting primary only).
	Templates []DriftTemplateStats `json:"templates,omitempty" metric:"-"`
}

// DriftDetector holds the detector's figures, filled and rendered on
// /metrics only where detection runs.
type DriftDetector struct {
	Tracked      int   `json:"tracked,omitempty" metric:"qoserved_drift_tracked_templates" help:"Templates with exact drift-tracking entries."`
	Observations int64 `json:"observations,omitempty" metric:"qoserved_drift_observations_total" help:"Template-attributed rewards observed by the detector."`
	SketchGated  int64 `json:"sketchGated,omitempty" metric:"qoserved_drift_sketch_gated_total" help:"Observations absorbed by the count-min sketch without exact tracking."`
	Evictions    int64 `json:"evictions,omitempty" metric:"qoserved_drift_evictions_total" help:"Exact entries evicted under the template cap."`
	SketchBytes  int   `json:"sketchBytes,omitempty" metric:"qoserved_drift_sketch_bytes" help:"Count-min sketch memory footprint."`
	Suspects     int   `json:"suspects,omitempty" metric:"qoserved_drift_suspect_templates" help:"Templates currently under suspicion (pre-quarantine hysteresis)."`
}

// HealthResponse answers /v2/healthz: a cheap liveness probe carrying
// the serving generation and queue depth so load balancers and rollover
// tooling can gate on it without the full stats payload.
type HealthResponse struct {
	Status     string  `json:"status"`
	RequestID  string  `json:"requestId,omitempty"`
	Generation uint64  `json:"generation"`
	UptimeSec  float64 `json:"uptimeSec"`
	Hints      int     `json:"hints"`
	QueueDepth int     `json:"queueDepth"`
	QueueCap   int     `json:"queueCap"`
}

// Health Status values. A follower whose replication tail has gone
// stale reports HealthDegraded (served with HTTP 503) so load
// balancers stop routing reads to a replica serving outdated state.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// Machine-readable error codes. Codes are the stable contract — clients
// branch on Code, never on Message text.
const (
	// CodeMethodNotAllowed: the route exists but not for this verb.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: no such route.
	CodeNotFound = "not_found"
	// CodeInvalidJSON: the body failed JSON decoding.
	CodeInvalidJSON = "invalid_json"
	// CodeInvalidRequest: well-formed JSON, semantically invalid
	// (empty span, span bit out of range, empty batch, batch too
	// large, missing required fields).
	CodeInvalidRequest = "invalid_request"
	// CodeBodyTooLarge: the body exceeded the route's size cap.
	CodeBodyTooLarge = "body_too_large"
	// CodeInvalidReward: the reward value is NaN or ±Inf — accepted, it
	// would poison the bandit weights and the drift sketches.
	CodeInvalidReward = "invalid_reward"
	// CodeUnknownEvent: the reward names no logged rank event (never
	// ranked, evicted, or already trained).
	CodeUnknownEvent = "unknown_event"
	// CodeQueueFull: the reward-ingestion queue is saturated; retry.
	CodeQueueFull = "queue_full"
	// CodeValidationFailed: a hint rollover failed SIS validation.
	CodeValidationFailed = "validation_failed"
	// CodeSnapshotUnconfigured: POST snapshot with no path configured.
	CodeSnapshotUnconfigured = "snapshot_unconfigured"
	// CodeNotPrimary: the request mutates state but this node is a
	// read-only follower. The envelope's Leader field carries the
	// primary's base URL; clients re-issue the write there.
	CodeNotPrimary = "not_primary"
	// CodeWALDisabled: a replication route on a server that runs without
	// a write-ahead log (no -wal-dir); there is nothing to ship.
	CodeWALDisabled = "wal_disabled"
	// CodeWALGap: the requested resume LSN predates the oldest retained
	// journal record (snapshot compaction removed it), or lies past the
	// journal's last record (the follower's history is not this
	// journal's). The follower must re-bootstrap from /v2/wal/snapshot.
	CodeWALGap = "wal_gap"
	// CodeIncidentsDisabled: an incident-capture request on a node
	// running without -incident-dir; there is nowhere to write bundles.
	CodeIncidentsDisabled = "incidents_disabled"
	// CodeDegraded: synthesized by the typed client when a health probe
	// answers 503 with a HealthResponse body (a follower whose
	// replication tail has gone stale). The server deliberately ships
	// the health body — not an envelope — so LB checks act on the
	// status code while the decoded response still carries the
	// diagnosis; it never appears on the wire as an envelope code.
	CodeDegraded = "degraded"
	// CodeInternal: the server failed; the request may be retried.
	CodeInternal = "internal"
)

// Error is the structured error envelope's payload. It implements the
// error interface so client methods can return it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Leader carries the primary's base URL on not_primary errors so a
	// client can chase the redirect without a discovery round-trip.
	Leader string `json:"leader,omitempty"`
	// HTTPStatus is the transport status the error traveled with. It is
	// not serialized; the client fills it in for callers that want to
	// branch on status rather than code.
	HTTPStatus int `json:"-"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errorf builds an *Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// NotPrimary builds the write-rejection envelope a follower returns,
// carrying the leader URL writes must be re-issued against.
func NotPrimary(leader string) *Error {
	return &Error{
		Code:    CodeNotPrimary,
		Message: "this node is a read-only follower; send writes to the primary",
		Leader:  leader,
	}
}

// ErrorResponse is the envelope every non-2xx response carries.
type ErrorResponse struct {
	Error     Error  `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// StatusForCode maps an error code to its canonical HTTP status. The
// server uses it when writing envelopes so code→status stays consistent
// across routes.
func StatusForCode(code string) int {
	switch code {
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeInvalidJSON, CodeInvalidRequest, CodeValidationFailed, CodeInvalidReward:
		return http.StatusBadRequest
	case CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeUnknownEvent, CodeNotFound:
		return http.StatusNotFound
	case CodeQueueFull, CodeDegraded:
		return http.StatusServiceUnavailable
	case CodeSnapshotUnconfigured, CodeWALDisabled, CodeIncidentsDisabled:
		return http.StatusConflict
	case CodeNotPrimary:
		return http.StatusMisdirectedRequest
	case CodeWALGap:
		return http.StatusGone
	default:
		return http.StatusInternalServerError
	}
}

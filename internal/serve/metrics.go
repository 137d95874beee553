package serve

import (
	"net/http"

	"qoadvisor/internal/api"
	"qoadvisor/internal/obs"
)

// Observability assembly: the serving path's stage histograms, the
// Prometheus text-format exposition behind GET /metrics, and the
// /v2/version build-info endpoint. /metrics is a projection of the
// /v2/stats document: every counter and gauge it reports appears there
// under a stable qoserved_* metric name, and the latency histograms
// the JSON stats summarize as percentiles are rebuilt from the raw
// buckets the document carries.

// stageHists holds one latency histogram per instrumented serving
// stage. Recording is lock-free and allocation-free (obs.Histogram),
// so these sit directly on the rank and reward hot paths.
type stageHists struct {
	rankHint     obs.Histogram // hint-cache lookup inside Rank (hit or miss)
	rankBandit   obs.Histogram // bandit decision incl. rank-event journaling
	rewardAppend obs.Histogram // WAL append of an accepted reward batch
	rewardCommit obs.Histogram // group-commit durability wait after append
	queueWait    obs.Histogram // enqueue -> worker pickup
	rewardApply  obs.Histogram // worker's apply of one reward, incl. the training pass it completes
	walFsync     obs.Histogram // journal fsync (committer / sync-mode commit)
	checkpoint   obs.Histogram // full checkpoint barrier duration
}

// each visits the stages in stable order under their wire names (the
// keys of StatsResponse.Stages and the stage label of
// qoserved_stage_duration_seconds).
func (st *stageHists) each(fn func(name string, h *obs.Histogram)) {
	fn("rank_hint_lookup", &st.rankHint)
	fn("rank_bandit", &st.rankBandit)
	fn("reward_wal_append", &st.rewardAppend)
	fn("reward_commit_wait", &st.rewardCommit)
	fn("reward_queue_wait", &st.queueWait)
	fn("reward_apply", &st.rewardApply)
	fn("wal_fsync", &st.walFsync)
	fn("checkpoint", &st.checkpoint)
}

// summarize renders a histogram snapshot as the JSON percentile form,
// carrying the raw buckets alongside so fleet tooling can merge the
// distributions the percentiles were estimated from.
func summarize(s obs.HistSnapshot) api.LatencySummary {
	return api.LatencySummary{
		Count:      int64(s.Count),
		MeanMicros: s.Mean().Microseconds(),
		P50Micros:  s.Quantile(0.50).Microseconds(),
		P90Micros:  s.Quantile(0.90).Microseconds(),
		P99Micros:  s.Quantile(0.99).Microseconds(),
		P999Micros: s.Quantile(0.999).Microseconds(),
		Hist:       histToWire(s),
	}
}

// histToWire puts a histogram snapshot's raw buckets on the wire
// (api.Hist); internal/fleet rebuilds and merges them with
// obs.SnapshotFromParts.
func histToWire(s obs.HistSnapshot) *api.Hist {
	b := make([]uint64, obs.NumHistBuckets)
	copy(b, s.Buckets[:])
	return &api.Hist{Count: s.Count, SumNanos: s.Sum, Buckets: b}
}

// stageSummaries builds StatsResponse.Stages: the built-in stages,
// audit_query once the audit engine has opened, and replication_apply
// on a follower core constructed by a tailer.
func (s *Server) stageSummaries() map[string]api.LatencySummary {
	out := make(map[string]api.LatencySummary, 10)
	add := func(name string, h *obs.Histogram) { out[name] = summarize(h.Snapshot()) }
	s.stages.each(add)
	if s.auditEng.Load() != nil {
		add("audit_query", &s.auditLat)
	}
	if s.tail != nil {
		add("replication_apply", s.tail.ApplyLatency)
	}
	return out
}

// writeMetrics renders the /metrics exposition from one /v2/stats
// document: every series is a projection of a stats leaf, so a scrape
// reads one instant and cannot disagree with /v2/stats, a fleet merge
// or an incident bundle's stats.json. Absent blocks (no WAL, no audit
// engine, no incident directory, a node outside a cluster) contribute
// no families; the detector's families need drift detection on. The
// version, drift, SLO and traces blocks are always present.
func writeMetrics(e *obs.Exposition, st *api.StatsResponse) {
	v := st.Version
	e.Gauge("qoserved_build_info",
		"Build metadata of the running binary (always 1; identity is in the labels).",
		obs.Labels{{Name: "module", Value: v.Module}, {Name: "version", Value: v.Version},
			{Name: "go_version", Value: v.GoVersion}, {Name: "revision", Value: v.Revision}}, 1)
	e.Gauge("qoserved_uptime_seconds", "Seconds since the server started.", nil, st.UptimeSec)

	// Serving counters.
	e.Counter("qoserved_rank_requests_total", "Rank decisions requested.", nil, float64(st.RankRequests))
	e.Counter("qoserved_rank_hint_hits_total", "Ranks answered from the hint cache.", nil, float64(st.HintHits))
	e.Counter("qoserved_rank_bandit_total", "Ranks answered by the bandit policy.", nil, float64(st.BanditRanks))
	e.Counter("qoserved_rank_noops_total", "Bandit ranks that chose the no-op action.", nil, float64(st.NoOps))
	e.Gauge("qoserved_hint_cache_entries", "Hints in the serving cache.", nil, float64(st.CacheSize))
	e.Gauge("qoserved_hint_cache_generation", "Hint-table generation.", nil, float64(st.CacheGen))
	e.Gauge("qoserved_bandit_log_events", "Rank events retained awaiting rewards.", nil, float64(st.BanditLog))

	// Ingestion counters.
	ing := &st.Ingest
	e.Counter("qoserved_ingest_enqueued_total", "Rewards accepted into the ingestion queue.", nil, float64(ing.Enqueued))
	e.Counter("qoserved_ingest_dropped_total", "Rewards rejected for backpressure or shutdown.", nil, float64(ing.Dropped))
	e.Counter("qoserved_ingest_applied_total", "Rewards applied to the learner.", nil, float64(ing.Applied))
	e.Counter("qoserved_ingest_unknown_events_total", "Rewards naming no logged rank event.", nil, float64(ing.UnknownEvents))
	e.Counter("qoserved_ingest_train_runs_total", "Training passes run.", nil, float64(ing.TrainRuns))
	e.Counter("qoserved_ingest_trained_events_total", "Events consumed by training passes.", nil, float64(ing.TrainedEvents))
	e.Counter("qoserved_ingest_journal_errors_total", "Failed durable-journal writes.", nil, float64(ing.JournalErrors))
	e.Gauge("qoserved_ingest_queue_depth", "Rewards waiting in the ingestion queue.", nil, float64(ing.QueueDepth))
	e.Gauge("qoserved_ingest_queue_capacity", "Ingestion queue capacity.", nil, float64(ing.QueueCap))

	// Journal counters (WAL-backed servers only).
	if ws := st.WAL; ws != nil {
		e.Counter("qoserved_wal_appends_total", "Journal records appended.", nil, float64(ws.Appends))
		e.Counter("qoserved_wal_appended_bytes_total", "Journal bytes appended.", nil, float64(ws.AppendedBytes))
		e.Counter("qoserved_wal_syncs_total", "Journal fsync batches.", nil, float64(ws.Syncs))
		e.Gauge("qoserved_wal_segments", "Journal segment files on disk.", nil, float64(ws.Segments))
		e.Counter("qoserved_wal_truncated_segments_total", "Segments removed by snapshot compaction.", nil, float64(ws.TruncatedSegments))
		e.Gauge("qoserved_wal_first_lsn", "Oldest retained journal position (last LSN + 1 when nothing is retained).", nil, float64(ws.FirstLSN))
		e.Gauge("qoserved_wal_last_lsn", "Newest appended journal position.", nil, float64(ws.LastLSN))
		e.Gauge("qoserved_wal_synced_lsn", "Durable journal frontier.", nil, float64(ws.SyncedLSN))
		e.Counter("qoserved_checkpoints_total", "Checkpoints taken.", nil, float64(ws.Checkpoints))
		e.Gauge("qoserved_checkpoint_last_lsn", "Journal watermark of the last checkpoint.", nil, float64(ws.LastCheckpointLSN))
		e.Gauge("qoserved_checkpoint_last_bytes", "Snapshot size of the last checkpoint.", nil, float64(ws.LastCheckpointB))
		e.Gauge("qoserved_checkpoint_last_duration_seconds", "End-to-end duration of the last checkpoint.", nil,
			float64(ws.LastCheckpointUs)/1e6)
	}

	// Drift-safeguard families. Enforcement gauges/counters are live on
	// every node (the quarantine table replicates); detector families
	// only where detection runs.
	ds := st.Drift
	enabled := 0.0
	if ds.Enabled {
		enabled = 1
	}
	e.Gauge("qoserved_drift_enabled", "Whether drift detection runs on this node (enforcement is always on).", nil, enabled)
	e.Counter("qoserved_quarantine_blocked_ranks_total", "Rank requests whose installed hint was refused because the template is quarantined.", nil, float64(ds.BlockedRanks))
	e.Counter("qoserved_quarantine_transitions_total", "Committed quarantine state-machine transitions.", nil, float64(ds.Transitions))
	e.Counter("qoserved_quarantine_entered_total", "Transitions into quarantine.", nil, float64(ds.Quarantines))
	e.Counter("qoserved_quarantine_probations_total", "Transitions from quarantine into probation.", nil, float64(ds.Probations))
	e.Counter("qoserved_quarantine_restores_total", "Transitions back to healthy.", nil, float64(ds.Restores))
	e.Counter("qoserved_quarantine_manual_total", "Operator-initiated transitions (POST /v2/quarantine).", nil, float64(ds.Manual))
	e.Counter("qoserved_quarantine_journal_errors_total", "Quarantine transitions rejected because the journal append failed.", nil, float64(ds.JournalErrs))
	e.Gauge("qoserved_quarantine_templates", "Templates currently quarantined.", nil, float64(ds.QuarantinedNow))
	e.Gauge("qoserved_quarantine_probation_templates", "Templates currently on probation.", nil, float64(ds.ProbationNow))
	if ds.Enabled {
		e.Gauge("qoserved_drift_tracked_templates", "Templates with exact drift-tracking entries.", nil, float64(ds.Tracked))
		e.Gauge("qoserved_drift_suspect_templates", "Templates currently under suspicion (pre-quarantine hysteresis).", nil, float64(ds.Suspects))
		e.Counter("qoserved_drift_observations_total", "Template-attributed rewards observed by the detector.", nil, float64(ds.Observations))
		e.Counter("qoserved_drift_sketch_gated_total", "Observations absorbed by the count-min sketch without exact tracking.", nil, float64(ds.SketchGated))
		e.Counter("qoserved_drift_evictions_total", "Exact entries evicted under the template cap.", nil, float64(ds.Evictions))
		e.Gauge("qoserved_drift_sketch_bytes", "Count-min sketch memory footprint.", nil, float64(ds.SketchBytes))
	}

	// Replication counters (cluster nodes only).
	if r := st.Replication; r != nil {
		e.Gauge("qoserved_replication_info",
			"Cluster role of this node (always 1; role is in the labels).",
			obs.Labels{{Name: "role", Value: r.Role}, {Name: "leader", Value: r.LeaderURL}}, 1)
		if r.Role == api.RolePrimary {
			e.Gauge("qoserved_replication_followers", "Follower streams currently attached.", nil, float64(r.Followers))
			e.Counter("qoserved_replication_streams_served_total", "WAL streams served.", nil, float64(r.StreamsServed))
			e.Counter("qoserved_replication_records_shipped_total", "Journal records shipped to followers.", nil, float64(r.RecordsShipped))
			e.Counter("qoserved_replication_bytes_shipped_total", "Journal bytes shipped to followers: 8 + payload per record, plus a 16-byte segment header per stream.", nil, float64(r.BytesShipped))
		} else {
			e.Gauge("qoserved_replication_applied_lsn", "Newest journal record applied locally.", nil, float64(r.AppliedLSN))
			e.Gauge("qoserved_replication_frontier_lsn", "Newest durable primary position observed.", nil, float64(r.FrontierLSN))
			e.Gauge("qoserved_replication_lag_records", "Records behind the observed primary frontier.", nil, float64(r.LagRecords))
			e.Gauge("qoserved_replication_last_tail_seconds", "Seconds since the last tail activity.", nil, r.LastTailSec)
			e.Counter("qoserved_replication_records_applied_total", "Journal records applied since start.", nil, float64(r.RecordsApplied))
			e.Counter("qoserved_replication_reconnects_total", "Tail stream reconnects.", nil, float64(r.Reconnects))
			e.Counter("qoserved_replication_resyncs_total", "Full re-bootstraps.", nil, float64(r.Resyncs))
		}
	}

	for name, ls := range st.Stages {
		e.Histogram("qoserved_stage_duration_seconds", "Serving-stage latency distributions.",
			obs.L("stage", name), wireHist(ls.Hist))
	}

	if a := st.Audit; a != nil {
		e.Counter("qoserved_audit_queries_total", "Audit queries served.", nil, float64(a.Queries))
		e.Counter("qoserved_audit_segments_scanned_total", "Journal segments scanned by audit queries.", nil, float64(a.SegmentsScanned))
		e.Counter("qoserved_audit_segments_skipped_total", "Journal segments outside an audit query's LSN window, never opened.", nil, float64(a.SegmentsSkipped))
		e.Counter("qoserved_audit_records_scanned_total", "Journal records scanned by audit queries.", nil, float64(a.RecordsScanned))
		e.Counter("qoserved_audit_records_matched_total", "Journal records matched by audit queries.", nil, float64(a.RecordsMatched))
	}

	for _, o := range st.SLO.Objectives {
		base := obs.Labels{{Name: "slo", Value: o.Name}}
		e.Gauge("qoserved_slo_target",
			"Declared good-fraction target of the objective.",
			append(append(obs.Labels{}, base...), obs.Label{Name: "kind", Value: o.Kind}), o.Target)
		if o.Kind == obs.SLOLatency {
			e.Gauge("qoserved_slo_latency_threshold_seconds",
				"Latency bound under which a request counts as good.",
				base, float64(o.ThresholdMicros)/1e6)
		}
		for _, w := range o.Windows {
			labels := append(append(obs.Labels{}, base...), obs.Label{Name: "window", Value: w.Window})
			e.Gauge("qoserved_slo_window_ops",
				"Operations observed inside the rolling window.", labels, w.Ops)
			e.Gauge("qoserved_slo_compliance_ratio",
				"Achieved good fraction over the rolling window.", labels, w.Compliance)
			e.Gauge("qoserved_slo_burn_rate",
				"Error rate over the window divided by the budgeted rate (1.0 = spending the budget exactly).", labels, w.BurnRate)
			e.Gauge("qoserved_slo_error_budget_remaining",
				"Unspent fraction of the window's error budget (negative once overspent).", labels, w.BudgetRemaining)
		}
	}

	tr := st.Traces
	const retainedHelp = "Traces retained by the flight recorder, by retention reason."
	e.Counter("qoserved_trace_retained_total", retainedHelp, obs.L("reason", obs.RetainSlow), float64(tr.RetainedSlow))
	e.Counter("qoserved_trace_retained_total", retainedHelp, obs.L("reason", obs.RetainError), float64(tr.RetainedError))
	e.Counter("qoserved_trace_evicted_total",
		"Retained traces pushed out of the ring by newer ones.", nil, float64(tr.Evicted))
	e.Gauge("qoserved_trace_ring_size", "Traces currently retained.", nil, float64(tr.Retained))
	e.Gauge("qoserved_trace_ring_capacity", "Retained-ring capacity.", nil, float64(tr.Capacity))
	e.Gauge("qoserved_trace_retain_threshold_seconds",
		"Default slow-retention latency cutoff.", nil, float64(tr.ThresholdMicros)/1e6)

	if in := st.Incidents; in != nil {
		e.Gauge("qoserved_incident_enabled",
			"1 when the incident engine is capturing to -incident-dir.", nil, 1)
		e.Gauge("qoserved_incident_bundles",
			"Diagnostic bundles currently on disk.", nil, float64(in.Count))
		e.Counter("qoserved_incident_triggered_total",
			"Incident trigger firings (burn, quarantine, wal, manual).", nil, float64(in.Triggered))
		e.Counter("qoserved_incident_captured_total",
			"Diagnostic bundles captured.", nil, float64(in.Captured))
		e.Counter("qoserved_incident_suppressed_total",
			"Trigger firings swallowed by the capture cooldown.", nil, float64(in.Suppressed))
		e.Counter("qoserved_incident_capture_errors_total",
			"Bundle artifacts that failed to write.", nil, float64(in.CaptureErrors))
		e.Gauge("qoserved_incident_burn_threshold",
			"Shortest-window SLO burn rate that trips the burn trigger.", nil, in.BurnThreshold)
		e.Gauge("qoserved_incident_cooldown_seconds",
			"Minimum spacing between captures.", nil, in.CooldownSec)
		if in.LastAgeSec > 0 {
			e.Gauge("qoserved_incident_last_age_seconds",
				"Age of the newest bundle.", nil, in.LastAgeSec)
			e.Gauge("qoserved_incident_last_capture_duration_seconds",
				"Wall time the newest capture took.", nil, float64(in.LastCaptureMicros)/1e6)
		}
	}

	// The HTTP middleware's per-route families.
	for route, rs := range st.Routes {
		labels := obs.L("route", route)
		e.Counter("qoserved_http_requests_total", "HTTP requests served, by route.", labels, float64(rs.Count))
		e.Counter("qoserved_http_request_errors_total", "HTTP requests answered with status >= 400, by route.", labels, float64(rs.Errors))
		e.Counter("qoserved_http_request_5xx_total", "HTTP requests answered with status >= 500, by route (the availability-SLO error input).", labels, float64(rs.Status5xx))
		e.Histogram("qoserved_http_request_duration_seconds", "HTTP request latency, by route.", labels, wireHist(rs.Hist))
	}
	// Map-fed families (routes, stages) iterate in random order; sort
	// so consecutive scrapes diff cleanly.
	e.SortSeries()
}

// wireHist rebuilds a histogram snapshot from its wire form (the
// inverse of histToWire); a missing histogram is an empty one. It is
// fleet.FromWire, which serve cannot import: fleet's tests import serve.
func wireHist(h *api.Hist) obs.HistSnapshot {
	if h == nil {
		return obs.HistSnapshot{}
	}
	return obs.SnapshotFromParts(h.SumNanos, h.Buckets)
}

// handleMetrics serves the Prometheus text-format exposition, rendered
// from one Stats snapshot.
func (h *httpLayer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	st := h.srv.Stats()
	e := obs.NewExposition()
	writeMetrics(e, &st)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteTo(w)
}

// handleVersion serves the node's build identity.
func (h *httpLayer) handleVersion(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, api.VersionResponse{
		VersionInfo: h.srv.version,
		RequestID:   requestID(w),
	})
}

// VersionInfo reports the build identity embedded in stats responses.
func VersionInfo() api.VersionInfo {
	b := obs.Build()
	return api.VersionInfo{
		Module:    b.Module,
		Version:   b.Version,
		GoVersion: b.GoVersion,
		Revision:  b.Revision,
		BuildTime: b.BuildTime,
		Modified:  b.Modified,
	}
}

package serve

import (
	"net/http"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/obs"
)

// Observability assembly: the serving path's stage histograms, the
// Prometheus text-format exposition behind GET /metrics, and the
// /v2/version build-info endpoint. Every counter and gauge that
// /v2/stats reports is registered here under a stable qoserved_*
// metric name, plus the latency histograms the JSON stats summarize
// as percentiles.

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

// eachStage visits every stage this node reports: the built-in ones,
// audit_query once the audit engine has opened, and replication_apply
// on a follower core constructed by a tailer.
func (s *Server) eachStage(fn func(name string, h *obs.Histogram)) {
	s.stages.each(fn)
	if s.auditEng.Load() != nil {
		fn("audit_query", &s.auditLat)
	}
	if s.tail != nil {
		fn("replication_apply", s.tail.ApplyLatency)
	}
}

// stageSummaries builds StatsResponse.Stages.
func (s *Server) stageSummaries() map[string]api.LatencySummary {
	out := make(map[string]api.LatencySummary, 10)
	s.eachStage(func(name string, h *obs.Histogram) {
		out[name] = summarize(h.Snapshot())
	})
	return out
}

// collectMetrics assembles the server-owned families of the /metrics
// exposition from the same counters /v2/stats reports, plus the stage
// histograms. Route-level families are added by the HTTP layer.
func (s *Server) collectMetrics(e *obs.Exposition) {
	v := s.version
	e.Gauge("qoserved_build_info",
		"Build metadata of the running binary (always 1; identity is in the labels).",
		obs.Labels{{Name: "module", Value: v.Module}, {Name: "version", Value: v.Version},
			{Name: "go_version", Value: v.GoVersion}, {Name: "revision", Value: v.Revision}}, 1)
	e.Gauge("qoserved_uptime_seconds", "Seconds since the server started.",
		nil, time.Since(s.start).Seconds())

	// Serving counters.
	e.Counter("qoserved_rank_requests_total", "Rank decisions requested.", nil, float64(s.rankRequests.Load()))
	e.Counter("qoserved_rank_hint_hits_total", "Ranks answered from the hint cache.", nil, float64(s.hintHits.Load()))
	e.Counter("qoserved_rank_bandit_total", "Ranks answered by the bandit policy.", nil, float64(s.banditRanks.Load()))
	e.Counter("qoserved_rank_noops_total", "Bandit ranks that chose the no-op action.", nil, float64(s.noops.Load()))
	e.Gauge("qoserved_hint_cache_entries", "Hints in the serving cache.", nil, float64(s.cache.Size()))
	e.Gauge("qoserved_hint_cache_generation", "Hint-table generation.", nil, float64(s.cache.Generation()))
	e.Gauge("qoserved_bandit_log_events", "Rank events retained awaiting rewards.", nil, float64(s.bandit.LogSize()))

	// Ingestion counters.
	ing := s.ingest.Stats()
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
	if s.wal != nil {
		ws := s.wal.Stats()
		e.Counter("qoserved_wal_appends_total", "Journal records appended.", nil, float64(ws.Appends))
		e.Counter("qoserved_wal_appended_bytes_total", "Journal bytes appended.", nil, float64(ws.AppendedBytes))
		e.Counter("qoserved_wal_syncs_total", "Journal fsync batches.", nil, float64(ws.Syncs))
		e.Gauge("qoserved_wal_segments", "Journal segment files on disk.", nil, float64(ws.Segments))
		e.Counter("qoserved_wal_truncated_segments_total", "Segments removed by snapshot compaction.", nil, float64(ws.TruncatedSegs))
		e.Gauge("qoserved_wal_first_lsn", "Oldest retained journal position (last LSN + 1 when nothing is retained).", nil, float64(ws.FirstLSN))
		e.Gauge("qoserved_wal_last_lsn", "Newest appended journal position.", nil, float64(ws.LastLSN))
		e.Gauge("qoserved_wal_synced_lsn", "Durable journal frontier.", nil, float64(ws.SyncedLSN))
		e.Counter("qoserved_checkpoints_total", "Checkpoints taken.", nil, float64(s.checkpoints.Load()))
		e.Gauge("qoserved_checkpoint_last_lsn", "Journal watermark of the last checkpoint.", nil, float64(s.lastCkptLSN.Load()))
		e.Gauge("qoserved_checkpoint_last_bytes", "Snapshot size of the last checkpoint.", nil, float64(s.lastCkptBytes.Load()))
		e.Gauge("qoserved_checkpoint_last_duration_seconds", "End-to-end duration of the last checkpoint.", nil,
			float64(s.lastCkptMicros.Load())/1e6)
	}

	// Drift-safeguard families. Enforcement gauges/counters are live on
	// every node (the quarantine table replicates); detector families
	// only where detection runs.
	ds := s.guard.stats(0)
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
	if r := s.replicationStats(); r != nil {
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

	s.eachStage(func(name string, h *obs.Histogram) {
		e.Histogram("qoserved_stage_duration_seconds", "Serving-stage latency distributions.", obs.L("stage", name), h.Snapshot())
	})
	s.collectAuditMetrics(e)
	s.collectSLOMetrics(e)
	s.collectTraceMetrics(e)
	s.incidents.collectMetrics(e)
}

// collectTraceMetrics contributes the flight recorder's
// qoserved_trace_* families.
func (s *Server) collectTraceMetrics(e *obs.Exposition) {
	fs := s.flight.Stats()
	const retainedHelp = "Traces retained by the flight recorder, by retention reason."
	e.Counter("qoserved_trace_retained_total", retainedHelp, obs.L("reason", obs.RetainSlow), float64(fs.RetainedSlow))
	e.Counter("qoserved_trace_retained_total", retainedHelp, obs.L("reason", obs.RetainError), float64(fs.RetainedError))
	e.Counter("qoserved_trace_evicted_total",
		"Retained traces pushed out of the ring by newer ones.", nil, float64(fs.Evicted))
	e.Gauge("qoserved_trace_ring_size", "Traces currently retained.", nil, float64(fs.Retained))
	e.Gauge("qoserved_trace_ring_capacity", "Retained-ring capacity.", nil, float64(fs.Capacity))
	e.Gauge("qoserved_trace_retain_threshold_seconds",
		"Default slow-retention latency cutoff.", nil, fs.Threshold.Seconds())
}

// collectRouteMetrics adds the HTTP middleware's per-route families.
func (h *httpLayer) collectRouteMetrics(e *obs.Exposition) {
	for route, m := range h.stats {
		labels := obs.L("route", route)
		lat := m.lat.Snapshot()
		e.Counter("qoserved_http_requests_total", "HTTP requests served, by route.", labels, float64(lat.Count))
		e.Counter("qoserved_http_request_errors_total", "HTTP requests answered with status >= 400, by route.", labels, float64(m.errors.Load()))
		e.Counter("qoserved_http_request_5xx_total", "HTTP requests answered with status >= 500, by route (the availability-SLO error input).", labels, float64(m.status5xx.Load()))
		e.Histogram("qoserved_http_request_duration_seconds", "HTTP request latency, by route.", labels, lat)
	}
}

// handleMetrics serves the Prometheus text-format exposition.
func (h *httpLayer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	e := obs.NewExposition()
	h.srv.collectMetrics(e)
	h.collectRouteMetrics(e)
	// Map-fed families (routes, stages) iterate in random order; sort
	// so consecutive scrapes diff cleanly.
	e.SortSeries()
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

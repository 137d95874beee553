package serve

import (
	"net/http"
	"reflect"
	"strings"

	"qoadvisor/internal/api"
	"qoadvisor/internal/obs"
)

// Observability assembly: the serving path's stage histograms, the
// Prometheus text-format exposition behind GET /metrics, and the
// /v2/version build-info endpoint. /metrics is a projection of the
// /v2/stats document: every counter and gauge it reports appears there
// under a stable qoserved_* metric name, declared in a struct tag on
// the api field it projects, and the latency histograms the JSON stats
// summarize as percentiles are rebuilt from the raw buckets the
// document carries.

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
// api.Hist.Snapshot.
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
// or an incident bundle's stats.json. The plain series are declared on
// the api fields they project (project); this function keeps what
// the tags do not say: which blocks render on this node, and the
// labeled families. The version, drift, SLO and traces blocks are
// always present.
func writeMetrics(e *obs.Exposition, st *api.StatsResponse) {
	v := st.Version
	e.Gauge("qoserved_build_info",
		"Build metadata of the running binary (always 1; identity is in the labels).",
		obs.Labels{{Name: "module", Value: v.Module}, {Name: "version", Value: v.Version},
			{Name: "go_version", Value: v.GoVersion}, {Name: "revision", Value: v.Revision}}, 1)
	project(e, st)
	project(e, &st.Ingest)
	project(e, st.WAL)

	// Enforcement figures are live on every node (the quarantine table
	// replicates); the detector's only where detection runs.
	project(e, st.Drift)
	if st.Drift.Enabled {
		project(e, &st.Drift.DriftDetector)
	}

	if r := st.Replication; r != nil {
		e.Gauge("qoserved_replication_info",
			"Cluster role of this node (always 1; role is in the labels).",
			obs.Labels{{Name: "role", Value: r.Role}, {Name: "leader", Value: r.LeaderURL}}, 1)
		if r.Role == api.RolePrimary {
			project(e, &r.ReplicationPrimary)
		} else {
			project(e, &r.ReplicationFollower)
		}
	}

	for name, ls := range st.Stages {
		e.Histogram("qoserved_stage_duration_seconds", "Serving-stage latency distributions.",
			obs.L("stage", name), ls.Hist.Snapshot())
	}
	project(e, st.Audit)

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
	project(e, tr)

	if in := st.Incidents; in != nil {
		project(e, in)
		if in.LastAgeSec > 0 {
			project(e, &in.IncidentLastBundle)
		}
	}

	// The HTTP middleware's per-route families.
	for route, rs := range st.Routes {
		labels := obs.L("route", route)
		e.Counter("qoserved_http_requests_total", "HTTP requests served, by route.", labels, float64(rs.Count))
		e.Counter("qoserved_http_request_errors_total", "HTTP requests answered with status >= 400, by route.", labels, float64(rs.Errors))
		e.Counter("qoserved_http_request_5xx_total", "HTTP requests answered with status >= 500, by route (the availability-SLO error input).", labels, float64(rs.Status5xx))
		e.Histogram("qoserved_http_request_duration_seconds", "HTTP request latency, by route.", labels, rs.Hist.Snapshot())
	}
	// Map-fed families (routes, stages) iterate in random order; sort
	// so consecutive scrapes diff cleanly.
	e.SortSeries()
}

// project renders the plain series of one stats block: each field
// with a help tag, under its metric tag's name — a counter when the
// name ends in _total, a gauge otherwise — with a …Micros field in
// seconds and a bool as 0/1. A nil block renders nothing; embedded
// groups and labeled families are the caller's.
func project(e *obs.Exposition, block any) {
	v := reflect.ValueOf(block)
	if v.IsNil() {
		return
	}
	v = v.Elem()
	for i := range v.NumField() {
		tag := v.Type().Field(i).Tag
		help := tag.Get("help")
		if help == "" {
			continue
		}
		x := v.Field(i)
		var val float64
		switch {
		case x.Kind() == reflect.Bool:
			if x.Bool() {
				val = 1
			}
		case x.CanInt():
			val = float64(x.Int())
		case x.CanUint():
			val = float64(x.Uint())
		default:
			val = x.Float()
		}
		if json, _, _ := strings.Cut(tag.Get("json"), ","); strings.HasSuffix(json, "Micros") {
			val /= 1e6
		}
		if name := tag.Get("metric"); strings.HasSuffix(name, "_total") {
			e.Counter(name, help, nil, val)
		} else {
			e.Gauge(name, help, nil, val)
		}
	}
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

package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/wal"
)

// statsMetricRules maps every numeric (or boolean) leaf of the
// /v2/stats JSON document to the qoserved_* family that carries the
// same figure on /metrics. An empty family marks a leaf that is
// deliberately NOT a metric series, with the justification alongside —
// every skip must argue for itself. A leaf matching no rule fails the
// conformance test, so adding a stats field without its metric (or a
// conscious skip) is caught at test time, not during an incident.
var statsMetricRules = []struct {
	path   *regexp.Regexp
	family string
	why    string // justification when family is empty
}{
	{path: re(`^uptimeSec$`), family: "qoserved_uptime_seconds"},
	{path: re(`^rankRequests$`), family: "qoserved_rank_requests_total"},
	{path: re(`^hintHits$`), family: "qoserved_rank_hint_hits_total"},
	{path: re(`^banditRanks$`), family: "qoserved_rank_bandit_total"},
	{path: re(`^noops$`), family: "qoserved_rank_noops_total"},
	{path: re(`^cacheSize$`), family: "qoserved_hint_cache_entries"},
	{path: re(`^cacheGeneration$`), family: "qoserved_hint_cache_generation"},
	{path: re(`^banditLogSize$`), family: "qoserved_bandit_log_events"},

	{path: re(`^ingest\.enqueued$`), family: "qoserved_ingest_enqueued_total"},
	{path: re(`^ingest\.dropped$`), family: "qoserved_ingest_dropped_total"},
	{path: re(`^ingest\.applied$`), family: "qoserved_ingest_applied_total"},
	{path: re(`^ingest\.unknownEvents$`), family: "qoserved_ingest_unknown_events_total"},
	{path: re(`^ingest\.trainRuns$`), family: "qoserved_ingest_train_runs_total"},
	{path: re(`^ingest\.trainedEvents$`), family: "qoserved_ingest_trained_events_total"},
	{path: re(`^ingest\.journalErrors$`), family: "qoserved_ingest_journal_errors_total"},
	{path: re(`^ingest\.queueDepth$`), family: "qoserved_ingest_queue_depth"},
	{path: re(`^ingest\.queueCap$`), family: "qoserved_ingest_queue_capacity"},

	{path: re(`^wal\.firstLsn$`), family: "qoserved_wal_first_lsn"},
	{path: re(`^wal\.lastLsn$`), family: "qoserved_wal_last_lsn"},
	{path: re(`^wal\.syncedLsn$`), family: "qoserved_wal_synced_lsn"},
	{path: re(`^wal\.appends$`), family: "qoserved_wal_appends_total"},
	{path: re(`^wal\.appendedBytes$`), family: "qoserved_wal_appended_bytes_total"},
	{path: re(`^wal\.syncs$`), family: "qoserved_wal_syncs_total"},
	{path: re(`^wal\.segments$`), family: "qoserved_wal_segments"},
	{path: re(`^wal\.truncatedSegments$`), family: "qoserved_wal_truncated_segments_total"},
	{path: re(`^wal\.checkpoints$`), family: "qoserved_checkpoints_total"},
	{path: re(`^wal\.lastCheckpointLsn$`), family: "qoserved_checkpoint_last_lsn"},
	{path: re(`^wal\.lastCheckpointBytes$`), family: "qoserved_checkpoint_last_bytes"},
	{path: re(`^wal\.lastCheckpointMicros$`), family: "qoserved_checkpoint_last_duration_seconds"},

	{path: re(`^replication\.followers$`), family: "qoserved_replication_followers"},
	{path: re(`^replication\.streamsServed$`), family: "qoserved_replication_streams_served_total"},
	{path: re(`^replication\.recordsShipped$`), family: "qoserved_replication_records_shipped_total"},
	{path: re(`^replication\.bytesShipped$`), family: "qoserved_replication_bytes_shipped_total"},
	{path: re(`^replication\.lagRecords$`), family: "",
		why: "always-serialized follower counter; a primary reports 0 and exposes no lag series (qoserved_replication_lag_records is follower-only)"},
	{path: re(`^replication\.(appliedLsn|frontierLsn|lastTailSec|recordsApplied|reconnects|resyncs)$`),
		family: "", why: "follower-side counters with follower-only families; this conformance server is a primary so they are omitempty-absent anyway"},

	{path: re(`^drift\.enabled$`), family: "qoserved_drift_enabled"},
	{path: re(`^drift\.quarantinedNow$`), family: "qoserved_quarantine_templates"},
	{path: re(`^drift\.probationNow$`), family: "qoserved_quarantine_probation_templates"},
	{path: re(`^drift\.blockedRanks$`), family: "qoserved_quarantine_blocked_ranks_total"},
	{path: re(`^drift\.transitions$`), family: "qoserved_quarantine_transitions_total"},
	{path: re(`^drift\.quarantines$`), family: "qoserved_quarantine_entered_total"},
	{path: re(`^drift\.probations$`), family: "qoserved_quarantine_probations_total"},
	{path: re(`^drift\.restores$`), family: "qoserved_quarantine_restores_total"},
	{path: re(`^drift\.manualTransitions$`), family: "qoserved_quarantine_manual_total"},
	{path: re(`^drift\.journalErrors$`), family: "qoserved_quarantine_journal_errors_total"},
	{path: re(`^drift\.tracked$`), family: "qoserved_drift_tracked_templates"},
	{path: re(`^drift\.suspects$`), family: "qoserved_drift_suspect_templates"},
	{path: re(`^drift\.observations$`), family: "qoserved_drift_observations_total"},
	{path: re(`^drift\.sketchGated$`), family: "qoserved_drift_sketch_gated_total"},
	{path: re(`^drift\.evictions$`), family: "qoserved_drift_evictions_total"},
	{path: re(`^drift\.sketchBytes$`), family: "qoserved_drift_sketch_bytes"},
	{path: re(`^drift\.templates\.`), family: "",
		why: "per-template diagnostic rows (unbounded label cardinality); the aggregate gauges above are the series form"},

	{path: re(`^audit\.queries$`), family: "qoserved_audit_queries_total"},
	{path: re(`^audit\.segmentsScanned$`), family: "qoserved_audit_segments_scanned_total"},
	{path: re(`^audit\.segmentsSkipped$`), family: "qoserved_audit_segments_skipped_total"},
	{path: re(`^audit\.recordsScanned$`), family: "qoserved_audit_records_scanned_total"},
	{path: re(`^audit\.recordsMatched$`), family: "qoserved_audit_records_matched_total"},

	{path: re(`^routes\.[^.]+\.count$`), family: "qoserved_http_requests_total"},
	{path: re(`^routes\.[^.]+\.errors$`), family: "qoserved_http_request_errors_total"},
	{path: re(`^routes\.[^.]+\.status5xx$`), family: "qoserved_http_request_5xx_total"},
	{path: re(`^routes\.[^.]+\.(totalMicros|maxMicros|p50Micros|p90Micros|p99Micros|p999Micros|hist\..+)$`),
		family: "qoserved_http_request_duration_seconds"},
	{path: re(`^stages\.[^.]+\.`), family: "qoserved_stage_duration_seconds"},

	{path: re(`^slo\.objectives\.\d+\.target$`), family: "qoserved_slo_target"},
	{path: re(`^slo\.objectives\.\d+\.thresholdMicros$`), family: "qoserved_slo_latency_threshold_seconds"},
	{path: re(`^slo\.objectives\.\d+\.windows\.\d+\.ops$`), family: "qoserved_slo_window_ops"},
	{path: re(`^slo\.objectives\.\d+\.windows\.\d+\.compliance$`), family: "qoserved_slo_compliance_ratio"},
	{path: re(`^slo\.objectives\.\d+\.windows\.\d+\.burnRate$`), family: "qoserved_slo_burn_rate"},
	{path: re(`^slo\.objectives\.\d+\.windows\.\d+\.budgetRemaining$`), family: "qoserved_slo_error_budget_remaining"},

	{path: re(`^traces\.retained$`), family: "qoserved_trace_ring_size"},
	{path: re(`^traces\.capacity$`), family: "qoserved_trace_ring_capacity"},
	{path: re(`^traces\.(retainedTotal|retainedSlow|retainedError)$`),
		family: "qoserved_trace_retained_total"},
	{path: re(`^traces\.evicted$`), family: "qoserved_trace_evicted_total"},
	{path: re(`^traces\.thresholdMicros$`), family: "qoserved_trace_retain_threshold_seconds"},

	{path: re(`^incidents\.enabled$`), family: "qoserved_incident_enabled"},
	{path: re(`^incidents\.count$`), family: "qoserved_incident_bundles"},
	{path: re(`^incidents\.triggered$`), family: "qoserved_incident_triggered_total"},
	{path: re(`^incidents\.captured$`), family: "qoserved_incident_captured_total"},
	{path: re(`^incidents\.suppressed$`), family: "qoserved_incident_suppressed_total"},
	{path: re(`^incidents\.captureErrors$`), family: "qoserved_incident_capture_errors_total"},
	{path: re(`^incidents\.burnThreshold$`), family: "qoserved_incident_burn_threshold"},
	{path: re(`^incidents\.cooldownSec$`), family: "qoserved_incident_cooldown_seconds"},
	{path: re(`^incidents\.lastAgeSec$`), family: "qoserved_incident_last_age_seconds"},
	{path: re(`^incidents\.lastCaptureMicros$`), family: "qoserved_incident_last_capture_duration_seconds"},

	{path: re(`^version\.modified$`), family: "",
		why: "build identity travels as labels on qoserved_build_info, not as a numeric series"},
}

func re(s string) *regexp.Regexp { return regexp.MustCompile(s) }

// walkLeaves visits every numeric and boolean leaf of a decoded JSON
// document with its dotted path and value. Strings are identity/label
// material, never counters, and are not visited.
func walkLeaves(prefix string, v any, visit func(path string, leaf any)) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			walkLeaves(p, val, visit)
		}
	case []any:
		for i, val := range x {
			walkLeaves(fmt.Sprintf("%s.%d", prefix, i), val, visit)
		}
	case float64, bool:
		visit(prefix, x)
	}
}

// newMaximalServer builds the conformance fixture: a sync-WAL
// drift-detecting primary with incident capture that has served rank,
// reward, audit, checkpoint and manual-capture traffic, so every
// conditional /v2/stats block and /metrics family is present.
func newMaximalServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ctx := context.Background()
	j, err := wal.Open(wal.Options{Dir: t.TempDir(), Mode: wal.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Seed: 42, WAL: j, Drift: driftOn(), IncidentDir: t.TempDir()})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close(); j.Close() })

	// Touch every conditional surface: ranks, template-attributed
	// rewards (drift), an audit query, a checkpoint.
	cl := client.New(ts.URL)
	jobs := make([]api.RankRequest, 24)
	for i := range jobs {
		jobs[i] = api.RankRequest{TemplateHash: api.TemplateHash(i%3 + 1), Span: []int{i % 8, 8 + i%8}}
	}
	batch, err := cl.RankBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var events []api.RewardEvent
	for i, res := range batch.Results {
		if res.Error != nil || res.EventID == "" {
			continue
		}
		reward := 0.5
		hash := jobs[i].TemplateHash
		events = append(events, api.RewardEvent{EventID: res.EventID, Reward: &reward, TemplateHash: &hash})
	}
	if _, err := cl.RewardBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	if resp := getURL(t, ts.URL+api.RouteV2AuditRecords+"?limit=5"); resp.Body.Close() != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s answered %d", api.RouteV2AuditRecords, resp.StatusCode)
	}
	if _, err := srv.Checkpoint(t.TempDir() + "/conformance.snap"); err != nil {
		t.Fatal(err)
	}
	// A manual capture populates the incidents block's last-bundle leaves
	// (lastAgeSec, lastCaptureMicros) so their mappings are exercised.
	if _, err := cl.TriggerIncident(ctx); err != nil {
		t.Fatal(err)
	}
	return srv, ts
}

// TestStatsMetricsConformance pins the contract between the two
// observability surfaces: every counter and gauge /v2/stats reports —
// including the conditional WAL, replication, drift, audit and SLO
// blocks — must have a qoserved_* family on /metrics (or a justified
// skip in statsMetricRules). The server is deliberately maximal
// (newMaximalServer), so all conditional stats blocks are present.
func TestStatsMetricsConformance(t *testing.T) {
	_, ts := newMaximalServer(t)

	// Raw JSON (not the typed struct): the walk must see exactly what a
	// wire consumer sees, including fields the struct might drop.
	statsBody := httpGet(t, ts.URL+api.RouteV2Stats)
	var doc map[string]any
	if err := json.Unmarshal(statsBody, &doc); err != nil {
		t.Fatal(err)
	}
	for _, required := range []string{"wal", "replication", "drift", "audit", "slo", "traces", "incidents"} {
		if _, ok := doc[required]; !ok {
			t.Fatalf("conformance server must exercise the %q stats block; got keys %v", required, sortedKeys(doc))
		}
	}

	families := metricFamilies(t, ts.URL)
	var unmapped []string
	needed := map[string]string{} // family -> example stats path
	walkLeaves("", doc, func(path string, _ any) {
		if family, ok := statsFamily(path); !ok {
			unmapped = append(unmapped, path)
		} else if family != "" {
			needed[family] = path
		}
	})
	if len(unmapped) > 0 {
		sort.Strings(unmapped)
		t.Fatalf("stats leaves with no metrics mapping (add the family or a justified skip):\n  %s",
			strings.Join(unmapped, "\n  "))
	}
	for family, path := range needed {
		if !families[family] {
			t.Errorf("stats leaf %q maps to %s, which /metrics does not expose", path, family)
		}
	}
}

// identityFamilies are the /metrics families no stats leaf maps to, each
// with its reason.
var identityFamilies = map[string]string{
	"qoserved_build_info":       "a constant 1 carrying the version block's strings (module, version, goVersion, revision) as labels",
	"qoserved_replication_info": "a constant 1 carrying the replication block's role and leaderUrl strings as labels",
}

// TestMetricsFamiliesHaveStatsLeaves is TestStatsMetricsConformance
// read backwards: /metrics is a projection of the /v2/stats document,
// so every family a scrape of the maximal server exposes is the target
// of a statsMetricRules rule, or one of identityFamilies.
func TestMetricsFamiliesHaveStatsLeaves(t *testing.T) {
	_, ts := newMaximalServer(t)
	targets := map[string]bool{}
	for _, rule := range statsMetricRules {
		targets[rule.family] = true
	}
	for family := range metricFamilies(t, ts.URL) {
		if !targets[family] && identityFamilies[family] == "" {
			t.Errorf("/metrics exposes %s, which no /v2/stats leaf maps to (add the leaf and its statsMetricRules rule)", family)
		}
	}
}

// statsFamily is the family of the first statsMetricRules rule matching
// path ("" for a justified skip); ok is false when no rule matches.
func statsFamily(path string) (family string, ok bool) {
	for _, rule := range statsMetricRules {
		if rule.path.MatchString(path) {
			return rule.family, true
		}
	}
	return "", false
}

// projectionStats is a hand-built /v2/stats document with every block
// present and every figure distinct, for TestMetricsProjectStatsLeaves.
func projectionStats() api.StatsResponse {
	hist := func(sumNanos uint64, counts ...uint64) *api.Hist {
		b := make([]uint64, obs.NumHistBuckets)
		copy(b[12:], counts)
		h := &api.Hist{SumNanos: sumNanos, Buckets: b}
		for _, c := range counts {
			h.Count += c
		}
		return h
	}
	return api.StatsResponse{
		UptimeSec: 12.5, RankRequests: 101, HintHits: 102, BanditRanks: 103, NoOps: 104,
		CacheSize: 105, CacheGen: 106, BanditLog: 107,
		Ingest: api.IngestStats{Enqueued: 201, Dropped: 202, Applied: 203, UnknownEvents: 204,
			TrainRuns: 205, TrainedEvents: 206, QueueDepth: 207, QueueCap: 208, JournalErrors: 209},
		WAL: &api.WALStats{Mode: "sync", FirstLSN: 301, LastLSN: 302, SyncedLSN: 303, Appends: 304,
			AppendedBytes: 305, Syncs: 306, Segments: 307, TruncatedSegments: 308, Checkpoints: 309,
			LastCheckpointLSN: 310, LastCheckpointB: 311, LastCheckpointUs: 1_234_567},
		Replication: &api.ReplicationStats{Role: api.RolePrimary, Followers: 401, StreamsServed: 402,
			RecordsShipped: 403, BytesShipped: 404},
		Routes: map[string]api.RouteStats{
			"/v2/rank":   {Count: 9, Errors: 2, Status5xx: 1, Hist: hist(7_000_000, 4, 5)},
			"/v2/reward": {Count: 3, Errors: 1, Hist: hist(900_000, 0, 0, 3)},
		},
		Stages: map[string]api.LatencySummary{
			"rank_bandit":        {Count: 6, Hist: hist(5_000_000, 1, 2, 3)},
			"reward_commit_wait": {Count: 2, Hist: hist(600_000_000, 0, 0, 0, 0, 0, 0, 2)},
		},
		Version: &api.VersionInfo{Module: "qoadvisor", Version: "v1.2.3", GoVersion: "go1.24", Revision: "abc"},
		Drift: &api.DriftStats{Enabled: true, Tracked: 501, Observations: 502, SketchGated: 503,
			Evictions: 504, SketchBytes: 505, Suspects: 506, QuarantinedNow: 507, ProbationNow: 508,
			BlockedRanks: 509, Transitions: 510, Quarantines: 511, Probations: 512, Restores: 513,
			Manual: 514, JournalErrs: 515},
		Audit: &api.AuditStats{Queries: 601, SegmentsScanned: 602, SegmentsSkipped: 603,
			RecordsScanned: 604, RecordsMatched: 605},
		SLO: &api.SLOStats{Objectives: []api.SLOObjectiveStats{
			{Name: "rank_latency", Kind: obs.SLOLatency, Target: 0.99, ThresholdMicros: 25_000,
				Windows: []api.SLOWindowStats{{Window: "1m", Ops: 701, Compliance: 0.97, BurnRate: 3, BudgetRemaining: -2}}},
			{Name: "availability", Kind: obs.SLOAvailability, Target: 0.999,
				Windows: []api.SLOWindowStats{{Window: "5m", Ops: 702, Compliance: 1, BurnRate: 0, BudgetRemaining: 1}}},
		}},
		Traces: &api.TraceStats{Retained: 801, Capacity: 802, RetainedTotal: 1607, RetainedSlow: 803,
			RetainedError: 804, Evicted: 805, ThresholdMicros: 250_125},
		Incidents: &api.IncidentStats{Enabled: true, Count: 901, Triggered: 902, Captured: 903,
			Suppressed: 904, CaptureErrors: 905, BurnThreshold: 2.5, CooldownSec: 300, LastAgeSec: 7.25,
			LastCaptureMicros: 3_125, LastReason: "manual", LastID: "incident-x"},
	}
}

// renderSamples renders st through writeMetrics, with no server, and
// returns every sample keyed by its series text (name{labels}).
func renderSamples(t *testing.T, st *api.StatsResponse) map[string]float64 {
	t.Helper()
	e := obs.NewExposition()
	writeMetrics(e, st)
	var b strings.Builder
	e.WriteTo(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v := parseSampleLine(t, line)
		if labels != "" {
			name += "{" + labels + "}"
		}
		out[name] = v
	}
	return out
}

// TestMetricsProjectStatsLeaves holds each /metrics sample to the stats
// leaf it projects. Every unlabeled sample must equal the leaf its
// statsMetricRules rule maps to it (a *Micros leaf in seconds, a boolean
// as 0/1); the labeled families are checked series by series.
func TestMetricsProjectStatsLeaves(t *testing.T) {
	st := projectionStats()
	got := renderSamples(t, &st)
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	checked := map[string]bool{}
	walkLeaves("", doc, func(path string, leaf any) {
		family, ok := statsFamily(path)
		if !ok {
			t.Errorf("stats leaf %s matches no statsMetricRules rule", path)
			return
		}
		v, ok := got[family]
		if !ok {
			return // a skip, or a labeled family checked below
		}
		want, _ := leaf.(float64)
		if leaf == true {
			want = 1
		}
		if strings.HasSuffix(path, "Micros") {
			want /= 1e6
		}
		if v != want {
			t.Errorf("%s = %v, want %v (leaf %s)", family, v, want, path)
		}
		checked[family] = true
	})
	for series := range got {
		if !strings.Contains(series, "{") && !checked[series] {
			t.Errorf("%s is unlabeled but projects no stats leaf", series)
		}
	}

	for series, want := range map[string]float64{
		`qoserved_build_info{module="qoadvisor",version="v1.2.3",go_version="go1.24",revision="abc"}`: 1,
		`qoserved_replication_info{role="primary",leader=""}`:                                         1,
		`qoserved_http_requests_total{route="/v2/rank"}`:                                              9,
		`qoserved_http_request_errors_total{route="/v2/rank"}`:                                        2,
		`qoserved_http_request_5xx_total{route="/v2/rank"}`:                                           1,
		`qoserved_http_request_5xx_total{route="/v2/reward"}`:                                         0,
		`qoserved_http_request_duration_seconds_count{route="/v2/rank"}`:                              9,
		`qoserved_http_request_duration_seconds_sum{route="/v2/rank"}`:                                0.007,
		`qoserved_http_request_duration_seconds_bucket{route="/v2/rank",le="+Inf"}`:                   9,
		`qoserved_stage_duration_seconds_count{stage="reward_commit_wait"}`:                           2,
		`qoserved_stage_duration_seconds_sum{stage="reward_commit_wait"}`:                             0.6,
		`qoserved_stage_duration_seconds_count{stage="rank_bandit"}`:                                  6,
		`qoserved_trace_retained_total{reason="slow"}`:                                                803,
		`qoserved_trace_retained_total{reason="error"}`:                                               804,
		`qoserved_slo_target{slo="rank_latency",kind="latency"}`:                                      0.99,
		`qoserved_slo_target{slo="availability",kind="availability"}`:                                 0.999,
		`qoserved_slo_latency_threshold_seconds{slo="rank_latency"}`:                                  0.025,
		`qoserved_slo_window_ops{slo="rank_latency",window="1m"}`:                                     701,
		`qoserved_slo_compliance_ratio{slo="rank_latency",window="1m"}`:                               0.97,
		`qoserved_slo_burn_rate{slo="rank_latency",window="1m"}`:                                      3,
		`qoserved_slo_error_budget_remaining{slo="rank_latency",window="1m"}`:                         -2,
		`qoserved_slo_window_ops{slo="availability",window="5m"}`:                                     702,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}
	// Buckets are cumulative over the leaf's raw counts.
	for le, want := range map[string]float64{"2.048e-06": 0, "4.096e-06": 1, "8.192e-06": 3, "1.6384e-05": 6} {
		series := `qoserved_stage_duration_seconds_bucket{stage="rank_bandit",le="` + le + `"}`
		if got[series] != want {
			t.Errorf("%s = %v, want %v", series, got[series], want)
		}
	}
	if _, ok := got[`qoserved_slo_latency_threshold_seconds{slo="availability"}`]; ok {
		t.Error("an availability objective has no latency threshold series")
	}

	t.Run("absent blocks", func(t *testing.T) {
		st := projectionStats()
		st.WAL, st.Audit, st.Incidents = nil, nil, nil
		st.Drift = &api.DriftStats{QuarantinedNow: 1}
		got := renderSamples(t, &st)
		for series := range got {
			name, _, _ := strings.Cut(series, "{")
			for _, absent := range []string{"qoserved_wal_", "qoserved_checkpoint", "qoserved_audit_", "qoserved_incident_",
				"qoserved_drift_tracked", "qoserved_drift_suspect", "qoserved_drift_observations", "qoserved_drift_sketch", "qoserved_drift_evictions"} {
				if strings.HasPrefix(name, absent) {
					t.Errorf("%s rendered from a document without its block", series)
				}
			}
		}
		if got["qoserved_drift_enabled"] != 0 || got["qoserved_quarantine_templates"] != 1 {
			t.Errorf("drift off: drift_enabled %v, quarantine_templates %v; want 0 and 1 (enforcement runs on every node)",
				got["qoserved_drift_enabled"], got["qoserved_quarantine_templates"])
		}
	})
	t.Run("no bundle yet", func(t *testing.T) {
		st := projectionStats()
		st.Incidents.LastAgeSec, st.Incidents.LastCaptureMicros = 0, 0
		got := renderSamples(t, &st)
		for _, family := range []string{"qoserved_incident_last_age_seconds", "qoserved_incident_last_capture_duration_seconds"} {
			if _, ok := got[family]; ok {
				t.Errorf("%s rendered before the first capture", family)
			}
		}
	})
}

// metricFamilies scrapes /metrics and returns the set of family names.
func metricFamilies(t *testing.T, base string) map[string]bool {
	t.Helper()
	fams := map[string]bool{}
	for _, shape := range metricSeriesShapes(string(httpGet(t, base+"/metrics"))) {
		name, _, _ := strings.Cut(shape, "{")
		fams[name] = true
	}
	return fams
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	return body
}

package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/wal"
)

// unprojected holds the reason for each stats field whose metric tag
// is "-", keyed by type and field: the fields no /metrics family
// carries.
var unprojected = map[string]string{
	"VersionInfo.Modified": "build identity travels as labels on qoserved_build_info, not as a numeric series",
	"DriftStats.Templates": "per-template diagnostic rows (unbounded label cardinality); the aggregate gauges are the series form",
}

// walkFields visits every field reachable from struct type t with its
// /v2/stats path ([] marks a slice element, * a map value) and the
// struct type that declares it. An embedded group's fields sit at the
// group's own level, as encoding/json flattens them; a field with a
// metric tag is a leaf, its tag covering its whole value (a Hist's
// buckets belong to its holder's histogram family).
func walkFields(t reflect.Type, prefix string, visit func(path string, owner reflect.Type, f reflect.StructField)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			walkFields(f.Type, prefix, visit)
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		path := prefix + name
		visit(path, t, f)
		if _, leaf := f.Tag.Lookup("metric"); leaf {
			continue
		}
		ft := f.Type
		for ; ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Map; ft = ft.Elem() {
			switch ft.Kind() {
			case reflect.Slice:
				path += "[]"
			case reflect.Map:
				path += ".*"
			}
		}
		if ft.Kind() == reflect.Struct {
			walkFields(ft, path+".", visit)
		}
	}
}

// isNumeric reports whether a field of type t is a figure: a number or
// a bool.
func isNumeric(t reflect.Type) bool {
	k := t.Kind()
	return k == reflect.Bool || reflect.Int <= k && k <= reflect.Float64
}

// TestMetricsFamiliesHaveStatsLeaves reads the declarations, with no
// server: every number or bool reachable from api.StatsResponse names
// the family that carries it in its metric tag, or is "-" with its
// reason in unprojected; a field with a help tag is a figure and the
// only declaration of its plain series. testdata/stats_metrics.golden
// pins which leaf each family projects, so a tag moved to another
// field shows there.
func TestMetricsFamiliesHaveStatsLeaves(t *testing.T) {
	var lines []string
	plain := map[string]string{}
	reasons := map[string]bool{}
	walkFields(reflect.TypeOf(api.StatsResponse{}), "", func(path string, owner reflect.Type, f reflect.StructField) {
		key := owner.Name() + "." + f.Name
		family, tagged := f.Tag.Lookup("metric")
		switch {
		case !tagged:
			if isNumeric(f.Type) {
				t.Errorf("%s (%s) has no metric tag: name the family that carries it, or \"-\" with a reason in unprojected", key, path)
			}
			return
		case family == "-":
			if unprojected[key] == "" {
				t.Errorf("%s (%s) is tagged \"-\" with no reason in unprojected", key, path)
			}
			reasons[key] = true
		case f.Tag.Get("help") != "":
			if !isNumeric(f.Type) {
				t.Errorf("%s (%s) declares the plain series %s, but a %s is not a figure", key, path, family, f.Type)
			}
			if other, dup := plain[family]; dup {
				t.Errorf("%s is declared on %s and on %s", family, other, key)
			}
			plain[family] = key
		}
		lines = append(lines, path+" "+family)
	})
	for key := range unprojected {
		if !reasons[key] {
			t.Errorf("unprojected names %s, which is not a field tagged \"-\"", key)
		}
	}
	checkGolden(t, "stats_metrics.golden", lines)
}

// TestStatsMetricsConformance holds the maximal server's scrape to the
// declarations: it exposes every family a stats field names — the
// follower's aside, since the fixture is a primary — and no other.
func TestStatsMetricsConformance(t *testing.T) {
	_, ts := newMaximalServer(t)
	declared := map[string]bool{}
	walkFields(reflect.TypeOf(api.StatsResponse{}), "", func(_ string, owner reflect.Type, f reflect.StructField) {
		if family := f.Tag.Get("metric"); family != "" && family != "-" && owner != reflect.TypeOf(api.ReplicationFollower{}) {
			declared[family] = true
		}
	})
	exposed := metricFamilies(t, ts.URL)
	for family := range declared {
		if !exposed[family] {
			t.Errorf("a stats field declares %s, which /metrics does not expose", family)
		}
	}
	for family := range exposed {
		if !declared[family] {
			t.Errorf("/metrics exposes %s, which no stats field declares", family)
		}
	}
}

// newMaximalServer builds the conformance fixture: a sync-WAL
// drift-detecting primary with incident capture that has served rank,
// reward, audit, checkpoint and manual-capture traffic, so every
// conditional /v2/stats block and /metrics family is present.
func newMaximalServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	ctx := context.Background()
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync})
	srv := New(Config{Seed: 42, WAL: j, Drift: driftOn(), IncidentDir: t.TempDir()})
	ts, cl := nodetest.Serve(t, srv)

	// Touch every conditional surface: ranks, template-attributed
	// rewards (drift), an audit query, a checkpoint.
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
		Replication: &api.ReplicationStats{Role: api.RolePrimary, ReplicationPrimary: api.ReplicationPrimary{
			Followers: 401, StreamsServed: 402, RecordsShipped: 403, BytesShipped: 404}},
		Routes: map[string]api.RouteStats{
			"/v2/rank":   {Count: 9, Errors: 2, Status5xx: 1, Hist: hist(7_000_000, 4, 5)},
			"/v2/reward": {Count: 3, Errors: 1, Hist: hist(900_000, 0, 0, 3)},
		},
		Stages: map[string]api.LatencySummary{
			"rank_bandit":        {Count: 6, Hist: hist(5_000_000, 1, 2, 3)},
			"reward_commit_wait": {Count: 2, Hist: hist(600_000_000, 0, 0, 0, 0, 0, 0, 2)},
		},
		Version: &api.VersionInfo{Module: "qoadvisor", Version: "v1.2.3", GoVersion: "go1.24", Revision: "abc"},
		Drift: &api.DriftStats{Enabled: true, DriftDetector: api.DriftDetector{Tracked: 501, Observations: 502,
			SketchGated: 503, Evictions: 504, SketchBytes: 505, Suspects: 506}, QuarantinedNow: 507, ProbationNow: 508,
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
			Suppressed: 904, CaptureErrors: 905, BurnThreshold: 2.5, CooldownSec: 300,
			IncidentLastBundle: api.IncidentLastBundle{LastAgeSec: 7.25, LastCaptureMicros: 3_125, LastReason: "manual", LastID: "incident-x"}},
	}
}

// renderSamples renders st through writeMetrics, with no server, and
// returns every sample keyed by its series text (name{labels}). A
// family is a counter exactly when its name ends in _total.
func renderSamples(t *testing.T, st *api.StatsResponse) map[string]float64 {
	t.Helper()
	e := obs.NewExposition()
	writeMetrics(e, st)
	var b strings.Builder
	e.WriteTo(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, _ := strings.Cut(typ, " "); (kind == "counter") != strings.HasSuffix(name, "_total") {
				t.Errorf("%s is a %s", name, kind)
			}
		}
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

// plainSeries is what the plain series of document st must read: each
// field with a help tag, in a block present in st and outside the
// embedded groups skipped, by family, in the unit /metrics renders (a
// …Micros field in seconds, a bool as 0/1).
func plainSeries(st *api.StatsResponse, skipped ...any) map[string]float64 {
	skip := map[reflect.Type]bool{}
	for _, g := range skipped {
		skip[reflect.TypeOf(g)] = true
	}
	want := map[string]float64{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, x := v.Type().Field(i), v.Field(i)
			if x.Kind() == reflect.Pointer && !x.IsNil() {
				x = x.Elem()
			}
			if help := f.Tag.Get("help"); help != "" {
				var val float64
				if x.Kind() != reflect.Bool {
					val = x.Convert(reflect.TypeOf(val)).Float()
				} else if x.Bool() {
					val = 1
				}
				if json, _, _ := strings.Cut(f.Tag.Get("json"), ","); strings.HasSuffix(json, "Micros") {
					val /= 1e6
				}
				want[f.Tag.Get("metric")] = val
			} else if x.Kind() == reflect.Struct && !skip[x.Type()] {
				walk(x)
			}
		}
	}
	walk(reflect.ValueOf(st).Elem())
	return want
}

// checkPlainSeries renders st and holds its unlabeled samples to
// plainSeries(st, skipped...): each present and equal to its leaf, and
// no other.
func checkPlainSeries(t *testing.T, st *api.StatsResponse, skipped ...any) map[string]float64 {
	t.Helper()
	got := renderSamples(t, st)
	want := plainSeries(st, skipped...)
	for family, v := range want {
		if g, ok := got[family]; !ok || g != v {
			t.Errorf("%s = %v (present %v), want %v", family, g, ok, v)
		}
	}
	for series := range got {
		if _, ok := want[series]; !ok && !strings.Contains(series, "{") {
			t.Errorf("%s rendered, but this document declares no such series", series)
		}
	}
	return got
}

// TestMetricsProjectStatsLeaves holds each /metrics sample to the stats
// leaf it projects, with no server: every unlabeled sample is a leaf
// the tags declare and equals it, and the labeled families are checked
// series by series. The subtests drop what renders only on some nodes.
func TestMetricsProjectStatsLeaves(t *testing.T) {
	st := projectionStats()
	got := checkPlainSeries(t, &st, api.ReplicationFollower{})
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

	t.Run("follower", func(t *testing.T) {
		st := projectionStats()
		st.Replication = &api.ReplicationStats{Role: api.RoleFollower, LeaderURL: "http://primary:1",
			ReplicationFollower: api.ReplicationFollower{AppliedLSN: 411, FrontierLSN: 412, LagRecords: 413,
				LastTailSec: 4.5, RecordsApplied: 414, Reconnects: 415, Resyncs: 416}}
		got := checkPlainSeries(t, &st, api.ReplicationPrimary{})
		if got[`qoserved_replication_info{role="follower",leader="http://primary:1"}`] != 1 {
			t.Error("a follower's replication_info carries its role and leader")
		}
	})
	t.Run("absent blocks", func(t *testing.T) {
		st := projectionStats()
		st.WAL, st.Audit, st.Incidents, st.Replication = nil, nil, nil, nil
		st.Drift = &api.DriftStats{QuarantinedNow: 1}
		got := checkPlainSeries(t, &st, api.DriftDetector{})
		if _, ok := got[`qoserved_replication_info{role="",leader=""}`]; ok {
			t.Error("replication_info rendered on a node outside a cluster")
		}
	})
	t.Run("no bundle yet", func(t *testing.T) {
		st := projectionStats()
		st.Incidents.IncidentLastBundle = api.IncidentLastBundle{}
		checkPlainSeries(t, &st, api.ReplicationFollower{}, api.IncidentLastBundle{})
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

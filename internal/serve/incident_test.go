package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/load"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/wal"
)

// --- trigger layer (pure, injected clock) ---

func TestIncidentTriggerBurnCross(t *testing.T) {
	tr := incidentTriggers{}
	if tr.burnCross(0.5) {
		t.Fatal("below threshold must not cross")
	}
	if !tr.burnCross(2.5) {
		t.Fatal("rising through threshold must cross")
	}
	if tr.burnCross(3.0) {
		t.Fatal("sustained burn must cross exactly once")
	}
	if tr.burnCross(1.0) {
		t.Fatal("falling below is not a crossing")
	}
	if !tr.burnCross(2.0) {
		t.Fatal("re-rising to the threshold must cross again")
	}
}

func TestIncidentTriggerJournalFailure(t *testing.T) {
	tr := incidentTriggers{}
	if tr.journalFailure(0) {
		t.Fatal("no errors yet")
	}
	if !tr.journalFailure(2) {
		t.Fatal("counter advance must trigger")
	}
	if tr.journalFailure(2) {
		t.Fatal("steady counter must not re-trigger")
	}
	if !tr.journalFailure(3) {
		t.Fatal("further advance must trigger again")
	}
}

func TestIncidentTriggerCooldown(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr := incidentTriggers{}
	if !tr.admit(base, false) {
		t.Fatal("first firing must be admitted")
	}
	if tr.admit(base.Add(time.Minute), false) {
		t.Fatal("firing inside cooldown must be suppressed")
	}
	if !tr.admit(base.Add(6*time.Minute), false) {
		t.Fatal("firing after cooldown must be admitted")
	}
	// Force bypasses the cooldown but still stamps the window.
	if !tr.admit(base.Add(7*time.Minute), true) {
		t.Fatal("forced firing must be admitted inside cooldown")
	}
	if tr.admit(base.Add(8*time.Minute), false) {
		t.Fatal("forced firing must restart the cooldown window")
	}
}

// --- engine + HTTP surface ---

// incidentTestServer builds a sync-WAL drift-enabled primary with the
// incident engine pointed at dir. Its journal writes through a
// load.StallFS (j.FS()), where a test stalls an fsync. Its loop ticks
// once an hour, so trigger evaluation only happens when the test calls
// evaluate directly.
func incidentTestServer(t *testing.T, dir string) (*Server, *wal.WAL, *httptest.Server, *client.Client) {
	t.Helper()
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, FS: &load.StallFS{FS: wal.OS{}}})
	srv := New(Config{Seed: 7, WAL: j, Drift: driftOn()})
	srv.incidents = newIncidentEngine(srv, dir)
	srv.incidents.start(time.Hour)
	ts, cl := nodetest.Serve(t, srv)
	return srv, j, ts, cl
}

func TestIncidentDisabledSurfaces(t *testing.T) {
	srv := New(Config{Seed: 1})
	_, cl := nodetest.Serve(t, srv)
	ctx := context.Background()

	list, err := cl.Incidents(ctx)
	if err != nil {
		t.Fatalf("GET /v2/incidents on a disabled node: %v", err)
	}
	if list.Enabled || len(list.Incidents) != 0 {
		t.Fatalf("disabled node must answer enabled=false, empty list; got %+v", list)
	}
	_, err = cl.TriggerIncident(ctx)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeIncidentsDisabled {
		t.Fatalf("POST on a disabled node must answer %s, got %v", api.CodeIncidentsDisabled, err)
	}
	if srv.Stats().Incidents != nil {
		t.Fatal("disabled node must omit the incidents stats block")
	}
}

func TestIncidentManualCapture(t *testing.T) {
	dir := t.TempDir()
	srv, _, ts, cl := incidentTestServer(t, dir)
	ctx := context.Background()

	resp, err := cl.TriggerIncident(ctx)
	if err != nil {
		t.Fatalf("manual capture: %v", err)
	}
	m := resp.Incident
	if m.Reason != incidentManual || m.ID == "" {
		t.Fatalf("unexpected incident meta: %+v", m)
	}
	want := map[string]bool{
		"stats.json": false, "traces.json": false,
		"goroutine.pprof": false, "heap.pprof": false,
	}
	for _, f := range m.Files {
		if _, ok := want[f.Name]; ok {
			want[f.Name] = f.Bytes > 0
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("bundle missing (or empty) artifact %s; files: %+v", name, m.Files)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, m.ID, "meta.json")); err != nil {
		t.Fatalf("bundle meta.json not on disk: %v", err)
	}

	// A second forced capture bypasses the cooldown; list is newest-first.
	resp2, err := cl.TriggerIncident(ctx)
	if err != nil {
		t.Fatalf("second manual capture: %v", err)
	}
	list, err := cl.Incidents(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !list.Enabled || len(list.Incidents) != 2 || list.Incidents[0].ID != resp2.Incident.ID {
		t.Fatalf("want 2 bundles newest-first, got %+v", list)
	}

	// Fetch one bundle and stream an artifact.
	hr := getURL(t, ts.URL+api.RouteV2Incidents+"/"+m.ID)
	var got api.IncidentResponse
	err = json.NewDecoder(hr.Body).Decode(&got)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("GET bundle: status %d, %v", hr.StatusCode, err)
	}
	if got.Incident.ID != m.ID {
		t.Fatalf("fetched %q, want %q", got.Incident.ID, m.ID)
	}
	hr = getURL(t, ts.URL+api.RouteV2Incidents+"/"+m.ID+"?file=stats.json")
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("GET stats.json artifact: status %d, %v", hr.StatusCode, err)
	}
	var doc api.StatsResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("stats.json artifact is not JSON: %v", err)
	}
	if doc.WAL == nil || len(doc.Stages) == 0 || len(doc.Routes) == 0 {
		t.Fatalf("stats.json must carry the full stats document: %s", body)
	}
	// The bundle's one copy of every latency distribution: raw buckets
	// for each stage and each route.
	for name, st := range doc.Stages {
		if st.Hist == nil {
			t.Errorf("stats.json stage %s has no raw histogram", name)
		}
	}
	for route, rs := range doc.Routes {
		if rs.Hist == nil {
			t.Errorf("stats.json route %s has no raw histogram", route)
		}
	}

	// Path traversal is rejected, unknown bundles 404.
	if _, err := srv.incidents.file(m.ID, "../meta.json"); err == nil {
		t.Fatal("traversal artifact name must be rejected")
	}
	if resp := getURL(t, ts.URL+api.RouteV2Incidents+"/no-such-incident"); resp.Body.Close() != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown incident answered %d, want 404", resp.StatusCode)
	}
}

func TestIncidentQuarantineTriggerCaptures(t *testing.T) {
	srv, _, _, cl := incidentTestServer(t, t.TempDir())
	if _, err := srv.Quarantine(0xabcd, true); err != nil {
		t.Fatal(err)
	}
	// The transition rides the async event channel into the engine's run
	// loop; poll for the capture.
	deadline := time.Now().Add(5 * time.Second)
	for {
		list, err := cl.Incidents(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Incidents) > 0 {
			if got := list.Incidents[0].Reason; got != incidentQuarantine {
				t.Fatalf("bundle reason %q, want %q", got, incidentQuarantine)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no bundle captured for the quarantine transition")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIncidentStallBurnEndToEnd is the flight-recorder proof: an
// injected WAL fsync stall slows a reward request past the SLO
// threshold, the reward-latency burn rate crosses the incident
// threshold, and exactly one bundle is captured (the cooldown and the
// rising-edge trigger suppress repeats) — while the tail sampler
// retains the stalled request's trace, commit-wait stage included.
func TestIncidentStallBurnEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, j, _, cl := incidentTestServer(t, dir)
	ctx := context.Background()

	// Rank to mint reward event IDs.
	jobs := make([]api.RankRequest, 8)
	for i := range jobs {
		jobs[i] = api.RankRequest{TemplateHash: api.TemplateHash(i%3 + 1), Span: []int{i % 8, 8 + i%8}}
	}
	batch, err := cl.RankBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	reward := 0.5
	var events []api.RewardEvent
	for _, res := range batch.Results {
		if res.Error != nil || res.EventID == "" {
			continue
		}
		events = append(events, api.RewardEvent{EventID: res.EventID, Reward: &reward})
	}

	// Baseline: a fast reward batch, then an evaluation that must not
	// fire. Its rewards name templates only: the drift safeguard observes
	// them and the journal never sees them, so the baseline waits on no
	// fsync, which a loaded disk can stretch past the SLO bound.
	baseline := make([]api.RewardEvent, len(jobs))
	for i := range baseline {
		baseline[i] = api.RewardEvent{TemplateHash: &jobs[i].TemplateHash, Reward: &reward}
	}
	if _, err := cl.RewardBatch(ctx, baseline); err != nil {
		t.Fatal(err)
	}
	srv.incidents.evaluate(time.Now())
	if n := len(srv.incidents.list()); n != 0 {
		t.Fatalf("no incident expected before the stall, got %d", n)
	}

	// One-shot fsync stall: the next commit waits out the stall, well
	// past both the 100ms reward SLO threshold and the 250ms trace
	// retention threshold.
	const stall = 400 * time.Millisecond
	fsys := j.FS().(*load.StallFS)
	load.ArmStall(fsys, 0, stall)
	defer fsys.SetDelay(nil)

	start := time.Now()
	if _, err := cl.RewardBatch(ctx, events); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < stall {
		t.Fatalf("stalled reward batch returned in %v, want >= %v", took, stall)
	}

	// The burn evaluation crosses and captures exactly one bundle.
	srv.incidents.evaluate(time.Now())
	bundles := srv.incidents.list()
	if len(bundles) != 1 {
		t.Fatalf("want exactly 1 bundle after the burn crossing, got %d", len(bundles))
	}
	if bundles[0].Reason != incidentBurn {
		t.Fatalf("bundle reason %q, want %q", bundles[0].Reason, incidentBurn)
	}
	if bundles[0].BurnRate < 2 {
		t.Fatalf("bundle burn rate %v, want >= threshold 2", bundles[0].BurnRate)
	}

	// Sustained burn: further evaluations must not fire again (rising
	// edge latched; the five-minute cooldown would suppress anyway).
	srv.incidents.evaluate(time.Now())
	srv.incidents.evaluate(time.Now())
	if n := len(srv.incidents.list()); n != 1 {
		t.Fatalf("sustained burn must capture once, got %d bundles", n)
	}

	// The retained ring holds the stalled request's trace.
	traces, err := cl.Traces(ctx, client.TracesOptions{Route: api.RouteV2Reward, MinDur: stall})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces.Traces) == 0 {
		t.Fatal("stalled reward trace not retained")
	}
	tr := traces.Traces[0]
	if tr.Reason != "slow" || tr.DurMicros < stall.Microseconds() {
		t.Fatalf("retained trace %+v, want reason=slow dur>=%v", tr, stall)
	}
	var commitWait bool
	for _, ev := range traces.TraceEvents {
		if ev.Name == "reward_commit_wait" && time.Duration(ev.Dur*float64(time.Microsecond)) >= stall {
			commitWait = true
		}
	}
	if !commitWait {
		t.Fatal("retained trace must carry the reward_commit_wait stage covering the stall")
	}

	// The bundle's traces.json snapshot carries the same trace.
	b, err := os.ReadFile(filepath.Join(dir, bundles[0].ID, "traces.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap api.TracesResponse
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	var inBundle bool
	for _, m := range snap.Traces {
		if m.Route == api.RouteV2Reward && m.DurMicros >= stall.Microseconds() {
			inBundle = true
		}
	}
	if !inBundle {
		t.Fatal("bundle traces.json must include the stalled reward trace")
	}

	// Stats blocks agree with what happened.
	st := srv.Stats()
	if st.Incidents == nil || st.Incidents.Count != 1 || st.Incidents.LastReason != incidentBurn {
		t.Fatalf("incidents stats block %+v, want count=1 reason=burn", st.Incidents)
	}
	if st.Traces == nil || st.Traces.RetainedSlow < 1 {
		t.Fatalf("traces stats block %+v, want retainedSlow >= 1", st.Traces)
	}
}

// TestIncidentWALFailureTrigger drives the fail-stop trigger: a journal
// append error during a reward batch advances the journal-error
// counter, and the next evaluation captures a "wal" bundle.
func TestIncidentWALFailureTrigger(t *testing.T) {
	srv, j, _, cl := incidentTestServer(t, t.TempDir())
	ctx := context.Background()

	jobs := []api.RankRequest{{TemplateHash: 1, Span: []int{0, 8}}}
	batch, err := cl.RankBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	srv.incidents.evaluate(time.Now()) // baseline: primes the error-delta trigger

	j.FailAppends(func([]byte) error { return errors.New("injected append failure") })
	reward := 0.5
	if _, err := cl.RewardBatch(ctx, []api.RewardEvent{
		{EventID: batch.Results[0].EventID, Reward: &reward},
	}); err == nil {
		t.Fatal("reward batch must surface the journal failure")
	}
	j.FailAppends(nil)

	// The 5xx the failed batch answers also burns the availability SLO.
	// Latch the burn trigger as if it had already fired, so that this
	// evaluation isolates the fail-stop trigger instead of the cooldown
	// suppressing it behind a burn capture.
	srv.incidents.mu.Lock()
	srv.incidents.trig.burnHigh = true
	srv.incidents.mu.Unlock()
	srv.incidents.evaluate(time.Now())
	bundles := srv.incidents.list()
	if len(bundles) != 1 || bundles[0].Reason != incidentWAL {
		t.Fatalf("want 1 wal bundle, got %+v", bundles)
	}
}

// TestTraceOutputIsChromeTraceJSON holds tracesResponse, the one
// Chrome-trace renderer (/v2/traces and an incident bundle's
// traces.json), to the trace event format chrome://tracing and Perfetto
// load: a traceEvents array of "X" complete events, the request span
// after its stages, every event tagged with the request's X-Request-Id.
func TestTraceOutputIsChromeTraceJSON(t *testing.T) {
	// /v2/rank retains at 1ns: every rank is "slow".
	_, ts := newTestServer(t, Config{Seed: 1, Flight: obs.NewFlightRecorder(map[string]time.Duration{api.RouteV2Rank: time.Nanosecond})})
	resp, err := http.Post(ts.URL+api.RouteV2Rank, "application/json",
		strings.NewReader(`{"jobs":[{"templateHash":"feedface","span":[5,21]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get(api.RequestIDHeader)

	resp, err = http.Get(ts.URL + api.RouteV2Traces + "?route=" + api.RouteV2Rank)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("/v2/traces is not a JSON trace document: %v", err)
	}
	evs := doc.TraceEvents
	if len(evs) < 2 {
		t.Fatalf("got %d trace events, want the rank's stages and its request span", len(evs))
	}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Pid != evs[0].Pid || ev.Dur < 0 {
			t.Errorf("event %+v: want a complete event of one retained trace", ev)
		}
		if ev.Args["requestId"] != rid || ev.Args["reason"] != obs.RetainSlow {
			t.Errorf("event %q: args %v, want requestId %q and reason slow", ev.Name, ev.Args, rid)
		}
	}
	if last := evs[len(evs)-1]; last.Name != api.RouteV2Rank || last.Cat != "request" {
		t.Errorf("last event should be the request span, got %+v", last)
	}
}

// TestTracesRejectsOutOfRangeMinMs: a min_ms that is not a number, is
// negative, or is past what a time.Duration holds (where the
// conversion used to wrap to a negative cutoff that matched every
// retained trace) answers invalid_request; the largest valid one
// answers with no traces.
func TestTracesRejectsOutOfRangeMinMs(t *testing.T) {
	// /v2/rank retains at 1ns: every rank is "slow".
	_, ts := newTestServer(t, Config{Seed: 1, Flight: obs.NewFlightRecorder(map[string]time.Duration{api.RouteV2Rank: time.Nanosecond})})
	resp, err := http.Post(ts.URL+api.RouteV2Rank, "application/json",
		strings.NewReader(`{"jobs":[{"templateHash":"feedface","span":[5,21]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "1e300", "9.3e12", "-1", "x"} {
		resp, err := http.Get(ts.URL + api.RouteV2Traces + "?min_ms=" + url.QueryEscape(v))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(v, func(t *testing.T) { expectError(t, resp, http.StatusBadRequest, api.CodeInvalidRequest) })
	}
	resp, err = http.Get(ts.URL + api.RouteV2Traces + "?min_ms=9.2e12")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(doc.TraceEvents) != 0 {
		t.Errorf("min_ms=9.2e12: status %d, %d trace events; want 200 and none", resp.StatusCode, len(doc.TraceEvents))
	}
}

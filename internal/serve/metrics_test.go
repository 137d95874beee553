package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qoadvisor/internal/api"
)

// scrapeMetrics drives a little traffic through the server so every
// family has data, then fetches and returns the /metrics body.
func scrapeMetrics(t *testing.T, tsURL string) string {
	t.Helper()
	rr := rankOne(t, tsURL, api.RankRequest{
		TemplateHash: 0xfeed, TemplateID: "T0001", Span: []int{1, 2, 3}, RowCount: 1e5,
	})
	if rr.EventID != "" {
		rewardOne(t, tsURL, rr.EventID, 1.0).Body.Close()
	}
	resp, err := http.Get(tsURL + api.RouteMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// parseSampleLine splits one exposition sample into metric name, label
// text, and value, validating label syntax along the way.
func parseSampleLine(t *testing.T, line string) (name, labels string, value float64) {
	t.Helper()
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		t.Fatalf("sample line without value: %q", line)
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		t.Fatalf("unparseable value in %q: %v", line, err)
	}
	series := line[:sp]
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			t.Fatalf("unterminated label set: %q", line)
		}
		name, labels = series[:i], series[i+1:len(series)-1]
	} else {
		name = series
	}
	for _, c := range name {
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			t.Fatalf("invalid metric name char %q in %q", c, line)
		}
	}
	return name, labels, v
}

// baseFamily strips histogram sample suffixes to the declared family
// name (TYPE/HELP are declared for the family, samples carry suffixes).
func baseFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// TestMetricsExposition validates the hand-rolled Prometheus text
// encoding against the format's structural rules: every sample belongs
// to a family with exactly one preceding HELP and TYPE line, values
// parse, histogram buckets are cumulative and consistent with _count,
// and label values round-trip the escaping rules.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 3})
	body := scrapeMetrics(t, ts.URL)

	types := map[string]string{} // family -> declared type
	helps := map[string]int{}    // family -> HELP line count
	var families []string
	samples := map[string][]string{} // sample metric name -> lines

	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			fam := rest[:strings.IndexByte(rest, ' ')]
			helps[fam]++
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			fam, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown type %q for %s", typ, fam)
			}
			if _, dup := types[fam]; dup {
				t.Fatalf("family %s declared twice", fam)
			}
			types[fam] = typ
			families = append(families, fam)
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unrecognized comment line: %q", line)
		default:
			name, _, _ := parseSampleLine(t, line)
			samples[name] = append(samples[name], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Every sample's family must be declared; every family must have
	// exactly one HELP and carry at least one sample.
	for name := range samples {
		fam := baseFamily(name)
		if _, ok := types[fam]; !ok && name == fam {
			t.Errorf("sample %s has no TYPE declaration", name)
		}
	}
	for _, fam := range families {
		if helps[fam] != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", fam, helps[fam])
		}
		n := len(samples[fam])
		if types[fam] == "histogram" {
			n = len(samples[fam+"_bucket"]) + len(samples[fam+"_sum"]) + len(samples[fam+"_count"])
		}
		if n == 0 {
			t.Errorf("family %s declared but has no samples", fam)
		}
	}

	// The labeled families must be present (TestMetricsProjectStatsLeaves
	// holds every plain series to its field).
	for _, want := range []string{
		"qoserved_build_info", "qoserved_http_requests_total",
		"qoserved_http_request_duration_seconds", "qoserved_stage_duration_seconds",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}

	// The rank we drove must be visible in the counters.
	foundRank := false
	for _, line := range samples["qoserved_http_requests_total"] {
		_, labels, v := parseSampleLine(t, line)
		if strings.Contains(labels, `route="/v2/rank"`) && v >= 1 {
			foundRank = true
		}
	}
	if !foundRank {
		t.Error("qoserved_http_requests_total{route=\"/v2/rank\"} did not count the driven request")
	}
}

// TestMetricsHistogramConsistency checks every exported histogram's
// invariants: le= bounds strictly increase, bucket counts are
// cumulative (monotone non-decreasing), the +Inf bucket equals _count,
// and _sum is present for each series.
func TestMetricsHistogramConsistency(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 3})
	body := scrapeMetrics(t, ts.URL)

	type seriesKey struct{ fam, labels string }
	buckets := map[seriesKey][]struct {
		le  float64
		cum float64
	}{}
	counts := map[seriesKey]float64{}
	sums := map[seriesKey]bool{}

	stripLe := func(labels string) (rest string, le float64, inf bool) {
		parts := strings.Split(labels, ",")
		kept := parts[:0]
		for _, p := range parts {
			if strings.HasPrefix(p, `le="`) {
				val := strings.TrimSuffix(strings.TrimPrefix(p, `le="`), `"`)
				if val == "+Inf" {
					inf = true
					le = 0
				} else {
					f, err := strconv.ParseFloat(val, 64)
					if err != nil {
						t.Fatalf("bad le value %q", val)
					}
					le = f
				}
				continue
			}
			kept = append(kept, p)
		}
		return strings.Join(kept, ","), le, inf
	}

	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v := parseSampleLine(t, line)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			fam := strings.TrimSuffix(name, "_bucket")
			rest, le, inf := stripLe(labels)
			k := seriesKey{fam, rest}
			if inf {
				le = inf64()
			}
			buckets[k] = append(buckets[k], struct{ le, cum float64 }{le, v})
		case strings.HasSuffix(name, "_count"):
			counts[seriesKey{strings.TrimSuffix(name, "_count"), labels}] = v
		case strings.HasSuffix(name, "_sum"):
			sums[seriesKey{strings.TrimSuffix(name, "_sum"), labels}] = true
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram series found in exposition")
	}

	for k, bs := range buckets {
		for i := 1; i < len(bs); i++ {
			if bs[i].le <= bs[i-1].le {
				t.Errorf("%s{%s}: le bounds not increasing at %v", k.fam, k.labels, bs[i].le)
			}
			if bs[i].cum < bs[i-1].cum {
				t.Errorf("%s{%s}: bucket counts not cumulative at le=%v", k.fam, k.labels, bs[i].le)
			}
		}
		last := bs[len(bs)-1]
		if last.le != inf64() {
			t.Errorf("%s{%s}: final bucket is le=%v, want +Inf", k.fam, k.labels, last.le)
		}
		cnt, ok := counts[k]
		if !ok {
			t.Errorf("%s{%s}: no _count sample", k.fam, k.labels)
		} else if last.cum != cnt {
			t.Errorf("%s{%s}: +Inf bucket %v != _count %v", k.fam, k.labels, last.cum, cnt)
		}
		if !sums[k] {
			t.Errorf("%s{%s}: no _sum sample", k.fam, k.labels)
		}
	}
}

func inf64() float64 { return math.Inf(1) }

// TestVersionEndpoint exercises GET /v2/version and the version echo
// in /v2/stats.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 3})
	resp, err := http.Get(ts.URL + api.RouteV2Version)
	if err != nil {
		t.Fatal(err)
	}
	ver := decodeJSON[api.VersionResponse](t, resp)
	if ver.GoVersion == "" || ver.Module == "" {
		t.Errorf("version response missing build identity: %+v", ver)
	}
	if ver.RequestID == "" {
		t.Error("version response missing request ID")
	}

	sresp, err := http.Get(ts.URL + api.RouteV2Stats)
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeJSON[api.StatsResponse](t, sresp)
	if stats.Version == nil || stats.Version.GoVersion != ver.GoVersion {
		t.Errorf("stats version = %+v, want to match /v2/version %+v", stats.Version, ver.VersionInfo)
	}
}

// TestStatsStagesAndRoutePercentiles checks that /v2/stats carries the
// additive stage summaries and route percentile fields after traffic.
func TestStatsStagesAndRoutePercentiles(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 3})
	for i := 0; i < 8; i++ {
		rr := rankOne(t, ts.URL, api.RankRequest{
			TemplateHash: api.TemplateHash(i), TemplateID: fmt.Sprintf("T%04d", i), Span: []int{1, 5}, RowCount: 1e5,
		})
		if rr.EventID != "" {
			rewardOne(t, ts.URL, rr.EventID, 0.5).Body.Close()
		}
	}
	resp, err := http.Get(ts.URL + api.RouteV2Stats)
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeJSON[api.StatsResponse](t, resp)

	if len(stats.Stages) == 0 {
		t.Fatal("stats carries no stage summaries")
	}
	var names []string
	for name := range stats.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, want := range []string{"rank_bandit", "rank_hint_lookup", "reward_apply", "reward_queue_wait"} {
		i := sort.SearchStrings(names, want)
		if i >= len(names) || names[i] != want {
			t.Errorf("stage %q missing from stats (have %v)", want, names)
		}
	}
	bandit := stats.Stages["rank_bandit"]
	if bandit.Count < 8 {
		t.Errorf("rank_bandit count = %d, want >= 8", bandit.Count)
	}
	if bandit.P50Micros > bandit.P99Micros || bandit.P99Micros > bandit.P999Micros {
		t.Errorf("percentiles not monotone: %+v", bandit)
	}

	rankRoute := stats.Routes[api.RouteV2Rank]
	if rankRoute.Count < 8 || rankRoute.P50Micros <= 0 || rankRoute.P999Micros < rankRoute.P50Micros {
		t.Errorf("route percentile fields inconsistent: %+v", rankRoute)
	}
}

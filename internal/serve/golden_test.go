package serve

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qoadvisor/internal/api"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the running server")

// goldenRequests is the route table probe: every registered route
// answered once per verb it dispatches on, with a body the route
// accepts where one exists. TestSurfaceGoldens fails when a route is
// registered without an entry here.
var goldenRequests = []struct {
	method, path, body string
}{
	// The rollover goes first so the rank probes below take the hint
	// path: a bandit decision's optional keys (flip, chosen) would vary
	// with exploration.
	{http.MethodGet, api.RouteV2Hints, ""},
	{http.MethodPost, api.RouteV2Hints, "qoadvisor-hints v1 day=7\n00000000000abc12,T1,-R040,7\n"},
	{http.MethodGet, api.RouteV2Snapshot, ""},
	{http.MethodPost, api.RouteV2Snapshot, ""},
	{http.MethodGet, api.RouteV2Rank, ""},
	{http.MethodPost, api.RouteV2Rank, `{"jobs":[{"templateHash":"00000000000abc12","span":[1,9]}]}`},
	{http.MethodGet, api.RouteV2Reward, ""},
	{http.MethodPost, api.RouteV2Reward, `{"events":[{"templateHash":"0000000000000001","reward":0.5}]}`},
	{http.MethodGet, api.RouteV2Healthz, ""},
	{http.MethodPost, api.RouteV2Healthz, ""},
	{http.MethodGet, api.RouteV2Stats, ""},
	{http.MethodPost, api.RouteV2Stats, ""},
	{http.MethodGet, api.RouteV2Quarantine, ""},
	{http.MethodPost, api.RouteV2Quarantine, `{"templateHash":"00000000000000aa","action":"quarantine"}`},
	{http.MethodGet, api.RouteV2WAL + "?from=0&wait=1", ""},
	{http.MethodPost, api.RouteV2WAL, ""},
	{http.MethodGet, api.RouteV2WALSnapshot, ""},
	{http.MethodPost, api.RouteV2WALSnapshot, ""},
	{http.MethodGet, api.RouteV2AuditRecords + "?limit=1", ""},
	{http.MethodPost, api.RouteV2AuditRecords, ""},
	{http.MethodGet, api.RouteV2AuditDecision + "?event=ev-none", ""},
	{http.MethodPost, api.RouteV2AuditDecision, ""},
	{http.MethodGet, api.RouteV2AuditTemplate + "?template=0000000000000001", ""},
	{http.MethodPost, api.RouteV2AuditTemplate, ""},
	{http.MethodGet, api.RouteV2AuditAsOf, ""},
	{http.MethodPost, api.RouteV2AuditAsOf, ""},
	{http.MethodGet, api.RouteV2Traces, ""},
	{http.MethodPost, api.RouteV2Traces, ""},
	{http.MethodGet, api.RouteV2Incidents, ""},
	{http.MethodPost, api.RouteV2Incidents, ""},
	{http.MethodGet, api.RouteV2Version, ""},
	{http.MethodPost, api.RouteV2Version, ""},
	{http.MethodGet, api.RouteMetrics, ""},
	{http.MethodPost, api.RouteMetrics, ""},
	{http.MethodGet, "/v0/nope", ""},
	{http.MethodGet, "/v1/rank", ""}, // the retired protocol version is just another unmatched path
}

// enumLabels are the label keys whose values form a closed set the
// golden pins (a route, stage or retention reason appearing or
// vanishing is a surface change); every other label contributes its key
// only.
var enumLabels = map[string]bool{
	"route": true, "stage": true, "reason": true, "slo": true, "kind": true, "window": true, "role": true,
}

// TestSurfaceGoldens pins the maximal server's observable surface as
// three sorted text files: (a) each route's verb → status, content type
// and top-level JSON keys, (b) the /metrics family names with their
// label keys, (c) the leaf paths of /v2/stats. A refactor that claims
// "behaviour unchanged" shows an empty diff here; run with -update to
// accept an intended change.
func TestSurfaceGoldens(t *testing.T) {
	srv, ts := newMaximalServer(t)

	// Stats and metrics first: the route probe below adds traffic.
	var doc any
	if err := json.Unmarshal(httpGet(t, ts.URL+api.RouteV2Stats), &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	leafPaths("", doc, paths)
	checkGolden(t, "stats_paths.golden", sortedKeys(paths))

	checkGolden(t, "metrics.golden", metricSeriesShapes(string(httpGet(t, ts.URL+api.RouteMetrics))))

	probed := map[string]bool{}
	var lines []string
	for _, rq := range goldenRequests {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		route, _, _ := strings.Cut(rq.path, "?")
		probed[route] = true
		ctype, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		line := fmt.Sprintf("%-4s %-20s %d %s", rq.method, route, resp.StatusCode, ctype)
		var obj map[string]any
		if ctype == "application/json" && json.Unmarshal(body, &obj) == nil {
			line += " " + strings.Join(sortedKeys(obj), ",")
		}
		if resp.Header.Get(api.RequestIDHeader) == "" {
			line += " (no request id)"
		}
		lines = append(lines, line)
	}
	for route := range srv.http.stats {
		if route != routeUnmatched && !probed[route] {
			t.Errorf("route %s is registered but goldenRequests does not probe it", route)
		}
	}
	checkGolden(t, "routes.golden", lines)
}

// leafPaths collects the dotted path of every leaf in a decoded JSON
// document. Array indexes collapse to [] and histogram bucket arrays
// to one entry, so the set depends on the document's shape, not on how
// much traffic filled it.
func leafPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			leafPaths(p, val, out)
		}
	case []any:
		if len(x) == 0 {
			out[prefix+"[]"] = true
		}
		for _, val := range x {
			leafPaths(prefix+"[]", val, out)
		}
	default:
		out[prefix] = true
	}
}

// metricSeriesShapes reduces a Prometheus exposition to its sorted,
// deduplicated series shapes: family name plus label keys (values too
// for enumLabels).
func metricSeriesShapes(exposition string) []string {
	shapes := map[string]bool{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		var keys []string
		for _, kv := range splitLabels(labels) {
			k, v, _ := strings.Cut(kv, "=")
			switch {
			case k == "le":
			case enumLabels[k]:
				keys = append(keys, k+"="+strings.Trim(v, `"`))
			default:
				keys = append(keys, k)
			}
		}
		shapes[name+"{"+strings.Join(keys, ",")+"}"] = true
	}
	return sortedKeys(shapes)
}

// splitLabels splits a label set on the commas between pairs (label
// values are quoted and may themselves contain commas).
func splitLabels(s string) []string {
	var out []string
	start, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\':
			i++
		case s[i] == '"':
			quoted = !quoted
		case s[i] == ',' && !quoted:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update ./internal/serve)", err, t.Name())
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range lines {
		have[l] = true
	}
	var diff []string
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		if !have[l] {
			diff = append(diff, "-"+l)
		}
		delete(have, l)
	}
	for _, l := range lines {
		if have[l] {
			diff = append(diff, "+"+l)
		}
	}
	t.Errorf("%s differs (-update accepts; - golden, + got):\n%s", path, strings.Join(diff, "\n"))
}

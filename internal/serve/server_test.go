package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/walrec"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts, _ := nodetest.Serve(t, s)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// rankOne posts a /v2/rank batch of one and returns its decision,
// failing the test on a per-job error.
func rankOne(t *testing.T, base string, job api.RankRequest) api.RankResponse {
	t.Helper()
	batch := decodeJSON[api.BatchRankResponse](t, postJSON(t, base+api.RouteV2Rank,
		api.BatchRankRequest{Jobs: []api.RankRequest{job}}))
	if len(batch.Results) != 1 || batch.Results[0].Error != nil {
		t.Fatalf("rank batch of one = %+v", batch)
	}
	return batch.Results[0].RankResponse
}

// rewardOne posts a /v2/reward batch of one.
func rewardOne(t *testing.T, base, eventID string, value float64) *http.Response {
	t.Helper()
	return postJSON(t, base+api.RouteV2Reward,
		api.BatchRewardRequest{Events: []api.RewardEvent{{EventID: eventID, Reward: &value}}})
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRankRewardEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 11})

	// No hints installed: the bandit path must answer and log an event.
	rr := rankOne(t, ts.URL, api.RankRequest{
		TemplateHash: 0xdeadbeef,
		TemplateID:   "T0001",
		Span:         []int{3, 17, 40},
		RowCount:     1e6,
		BytesRead:    1e9,
	})
	if rr.Source != api.SourceBandit || rr.EventID == "" {
		t.Fatalf("rank response = %+v, want bandit source with event ID", rr)
	}
	if rr.Prob <= 0 || rr.Prob > 1 {
		t.Fatalf("rank propensity %v out of (0,1]", rr.Prob)
	}
	if !rr.NoOp {
		if _, err := rules.ParseFlip(rr.Flip); err != nil {
			t.Fatalf("unparseable flip %q: %v", rr.Flip, err)
		}
	}

	// Reward the event asynchronously, then drain and check it landed.
	reward := rewardOne(t, ts.URL, rr.EventID, 1.7)
	if reward.StatusCode != http.StatusAccepted {
		t.Fatalf("reward status = %d, want 202", reward.StatusCode)
	}
	reward.Body.Close()
	srv.Ingestor().Drain()

	stats := decodeJSON[api.StatsResponse](t, mustGet(t, ts.URL+api.RouteV2Stats))
	if stats.RankRequests != 1 || stats.BanditRanks != 1 || stats.HintHits != 0 {
		t.Errorf("stats = %+v, want 1 rank, 1 bandit rank, 0 hint hits", stats)
	}
	if stats.Ingest.Applied != 1 || stats.Ingest.TrainedEvents != 1 {
		t.Errorf("ingest stats = %+v, want 1 applied and trained", stats.Ingest)
	}
	if stats.BanditLog != 1 {
		t.Errorf("bandit log = %d, want 1", stats.BanditLog)
	}
}

func TestHintsInstallAndServe(t *testing.T) {
	cat := rules.NewCatalog()
	_, ts := newTestServer(t, Config{Seed: 11})

	// Install a day-7 hint table through the rollover endpoint.
	file := sis.File{Day: 7, Hints: []sis.Hint{
		{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(40), Day: 7},
	}}
	var buf bytes.Buffer
	if err := sis.Serialize(&buf, file); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+api.RouteV2Hints, "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	install := decodeJSON[api.HintsInstallResponse](t, resp)
	if resp.StatusCode != http.StatusOK || install.Installed != 1 || install.Day != 7 || install.Generation != 1 {
		t.Fatalf("hints install: status %d, body %+v", resp.StatusCode, install)
	}

	// A rank for the hinted template must hit the cache — no event logged.
	rr := rankOne(t, ts.URL, api.RankRequest{TemplateHash: 0xabc123, Span: []int{40}})
	if rr.Source != api.SourceHint || rr.EventID != "" {
		t.Fatalf("rank = %+v, want hint-cache hit", rr)
	}
	if rr.Flip != cat.FlipFor(40).String() || rr.HintDay != 7 || rr.Generation != 1 {
		t.Fatalf("hint payload = %+v", rr)
	}

	// Unknown template still goes to the bandit.
	if rr2 := rankOne(t, ts.URL, api.RankRequest{TemplateHash: 1, Span: []int{40}}); rr2.Source != api.SourceBandit {
		t.Fatalf("unhinted rank source = %q, want bandit", rr2.Source)
	}
}

// expectError asserts a structured error envelope with the wanted code.
func expectError(t *testing.T, resp *http.Response, wantStatus int, wantCode string) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Errorf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	env := decodeJSON[api.ErrorResponse](t, resp)
	if env.Error.Code != wantCode {
		t.Errorf("error code = %q, want %q (message %q)", env.Error.Code, wantCode, env.Error.Message)
	}
	if env.Error.Message == "" {
		t.Errorf("error envelope for %s has empty message", wantCode)
	}
}

// TestAPIConformanceErrorEnvelopes covers the HTTP error paths: wrong
// method, malformed JSON, rollover validation failures, unmatched paths
// (including every shape of request to the retired /v1 protocol) — all
// asserting the machine-readable envelope.
func TestAPIConformanceErrorEnvelopes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 3})

	// One real rank event so reward tests can tell unknown from known.
	known, err := srv.Rank(api.RankRequest{TemplateHash: 9, Span: []int{5}})
	if err != nil {
		t.Fatal(err)
	}

	do := func(method, path, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	oversized := `{"templateId":"` + strings.Repeat("A", 1<<20) + `"}`

	cases := []struct {
		name         string
		method, path string
		body         string
		wantStatus   int
		wantCode     string
	}{
		{"GET v2 rank", http.MethodGet, api.RouteV2Rank, "", 405, api.CodeMethodNotAllowed},
		{"DELETE v2 reward", http.MethodDelete, api.RouteV2Reward, "", 405, api.CodeMethodNotAllowed},
		{"POST v2 healthz", http.MethodPost, api.RouteV2Healthz, "", 405, api.CodeMethodNotAllowed},
		{"POST v2 stats", http.MethodPost, api.RouteV2Stats, "", 405, api.CodeMethodNotAllowed},
		{"GET v2 hints", http.MethodGet, api.RouteV2Hints, "", 405, api.CodeMethodNotAllowed},
		{"DELETE snapshot", http.MethodDelete, api.RouteV2Snapshot, "", 405, api.CodeMethodNotAllowed},

		{"malformed v2 rank", http.MethodPost, api.RouteV2Rank, "{", 400, api.CodeInvalidJSON},
		{"malformed v2 reward", http.MethodPost, api.RouteV2Reward, "{", 400, api.CodeInvalidJSON},
		{"bad hash", http.MethodPost, api.RouteV2Rank, `{"jobs":[{"templateHash":"zz","span":[1]}]}`, 400, api.CodeInvalidJSON},
		{"empty batch v2 rank", http.MethodPost, api.RouteV2Rank, `{"jobs":[]}`, 400, api.CodeInvalidRequest},
		{"empty batch v2 reward", http.MethodPost, api.RouteV2Reward, `{"events":[]}`, 400, api.CodeInvalidRequest},
		{"missing templateHash v2", http.MethodPost, api.RouteV2Rank, `{"jobs":[{"span":[1]}]}`, 400, api.CodeInvalidJSON},

		{"unknown route", http.MethodGet, "/v2/nope", "", 404, api.CodeNotFound},
		{"root path", http.MethodGet, "/", "", 404, api.CodeNotFound},
		{"unversioned rank", http.MethodPost, "/rank", `{}`, 404, api.CodeNotFound},

		// The retired /v1 protocol: whatever the verb or body — well
		// formed, malformed, or past every size cap — the unmatched
		// handler answers the 404 envelope without reading it.
		{"GET v1 rank", http.MethodGet, "/v1/rank", "", 404, api.CodeNotFound},
		{"GET v1 reward", http.MethodGet, "/v1/reward", "", 404, api.CodeNotFound},
		{"GET v1 hints", http.MethodGet, "/v1/hints", "", 404, api.CodeNotFound},
		{"malformed v1 rank", http.MethodPost, "/v1/rank", "{", 404, api.CodeNotFound},
		{"malformed v1 reward", http.MethodPost, "/v1/reward", "{", 404, api.CodeNotFound},
		{"oversized v1 rank", http.MethodPost, "/v1/rank", oversized, 404, api.CodeNotFound},
		{"oversized v1 reward", http.MethodPost, "/v1/reward", oversized, 404, api.CodeNotFound},
		{"span out of range v1", http.MethodPost, "/v1/rank",
			`{"templateHash":"0000000000000001","span":[999]}`, 404, api.CodeNotFound},
		{"empty span v1", http.MethodPost, "/v1/rank",
			`{"templateHash":"0000000000000001","span":[]}`, 404, api.CodeNotFound},
		{"missing templateHash v1", http.MethodPost, "/v1/rank", `{"span":[1]}`, 404, api.CodeNotFound},
		{"missing reward fields v1", http.MethodPost, "/v1/reward", `{"eventId":""}`, 404, api.CodeNotFound},
		{"unknown event v1", http.MethodPost, "/v1/reward",
			`{"eventId":"ev-never-ranked","reward":1.0}`, 404, api.CodeNotFound},

		{"rollover validation failure", http.MethodPost, api.RouteV2Hints,
			"qoadvisor-hints v1 day=7\n00000000000abc12,T1,-R000,7\n", 400, api.CodeValidationFailed},
		{"rollover parse failure", http.MethodPost, api.RouteV2Hints,
			"not a hint file", 400, api.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			expectError(t, do(tc.method, tc.path, tc.body), tc.wantStatus, tc.wantCode)
		})
	}

	// The known event still rewards fine after all that.
	resp := rewardOne(t, ts.URL, known.EventID, 0.5)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("known event reward status = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// rawConn is one client connection to a test server driven by hand, so
// that a test sees what the server does with the connection itself.
type rawConn struct {
	net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, ts *httptest.Server) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{Conn: conn, br: bufio.NewReader(conn)}
}

// post sends body to route — chunked, or under a Content-Length — and
// reads the response. The body goes out from its own goroutine: the
// server may answer before it has read all of it.
func (c *rawConn) post(t *testing.T, route string, body []byte, chunked bool) *http.Response {
	t.Helper()
	sent := make(chan struct{})
	t.Cleanup(func() { c.Close(); <-sent })
	go func() {
		defer close(sent)
		w := bufio.NewWriter(c.Conn)
		fmt.Fprintf(w, "POST %s HTTP/1.1\r\nHost: qoadvisor.test\r\nContent-Type: application/json\r\n", route)
		if !chunked {
			fmt.Fprintf(w, "Content-Length: %d\r\n\r\n", len(body))
			w.Write(body)
			w.Flush()
			return
		}
		io.WriteString(w, "Transfer-Encoding: chunked\r\n\r\n")
		for rest := body; len(rest) > 0; {
			n := min(len(rest), 64<<10)
			fmt.Fprintf(w, "%x\r\n%s\r\n", n, rest[:n])
			rest = rest[n:]
		}
		io.WriteString(w, "0\r\n\r\n")
		w.Flush()
	}()
	c.SetReadDeadline(time.Now().Add(30 * time.Second))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// closedByServer reports whether the server closed the connection: a
// read after the response ends instead of waiting for more.
func (c *rawConn) closedByServer() bool {
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := c.br.ReadByte()
	var ne net.Error
	return err != nil && !(errors.As(err, &ne) && ne.Timeout())
}

// TestAPIConformanceOversizedBatch checks the 8 MiB JSON cap on a body
// of declared length; TestAPIConformanceOversizedChunkedBatch, on one
// sent chunked.
func TestAPIConformanceOversizedBatch(t *testing.T) {
	checkBatchCap(t, false)
}

// TestAPIConformanceOversizedChunkedBatch sends /v2/rank bodies chunked,
// with no Content-Length for the server to check up front: the cap
// still holds while reading.
func TestAPIConformanceOversizedChunkedBatch(t *testing.T) {
	checkBatchCap(t, true)
}

// checkBatchCap: a body one byte over the cap is body_too_large, and the
// server closes the connection rather than read the rest; one of
// exactly the cap is read whole — cut short, its unterminated string
// would read as body_too_large too — and the connection serves the
// next request.
func checkBatchCap(t *testing.T, chunked bool) {
	_, ts := newTestServer(t, Config{Seed: 3})
	prefix := `{"jobs":[{"templateId":"`

	over := dialRaw(t, ts)
	resp := over.post(t, api.RouteV2Rank, []byte(prefix+strings.Repeat("A", maxBatchBody+1-len(prefix))), chunked)
	expectError(t, resp, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge)
	if !resp.Close || !over.closedByServer() {
		t.Errorf("connection kept open after an over-cap body (Connection: close sent: %v)", resp.Close)
	}

	exact := dialRaw(t, ts)
	resp = exact.post(t, api.RouteV2Rank, []byte(prefix+strings.Repeat("A", maxBatchBody-len(prefix))), chunked)
	expectError(t, resp, http.StatusBadRequest, api.CodeInvalidJSON)
	if resp.Close {
		t.Error("a body of exactly the cap closed the connection")
	}
	resp = exact.post(t, api.RouteV2Rank, []byte(`{"jobs":[{"templateHash":"1","span":[5]}]}`), chunked)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("next request on the connection: status %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestAPIConformanceBatchKeepsItsConnection: rank and reward batches
// read to EOF (and closed by the handler) leave their connection to the
// next request: 20 rank plus reward ops through one client open one
// connection.
func TestAPIConformanceBatchKeepsItsConnection(t *testing.T) {
	srv := New(Config{Seed: 3})
	defer srv.Close()
	if _, err := srv.InstallHints(testHints(rules.NewCatalog(), 16, 1)); err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 10 * time.Second}))

	jobs := make([]api.RankRequest, 16)
	events := make([]api.RewardEvent, 16)
	reward := 0.5
	for i := range jobs {
		th := api.TemplateHash(0x1000 + i)
		jobs[i] = api.RankRequest{TemplateHash: th, Span: []int{40 + i}}
		events[i] = api.RewardEvent{TemplateHash: &th, Reward: &reward}
	}
	ctx := context.Background()
	for op := range 20 {
		if resp, err := c.RankBatch(ctx, jobs); err != nil || len(resp.Results) != 16 {
			t.Fatalf("op %d: RankBatch = %d results, %v", op, len(resp.Results), err)
		}
		if _, err := c.RewardBatch(ctx, events); err != nil {
			t.Fatalf("op %d: RewardBatch: %v", op, err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("20 rank plus reward ops opened %d connections, want 1", n)
	}
}

// TestAPIConformanceHeadersOutliveRequest: a handler's header map can
// outlive its request (httptest.ResponseRecorder keeps it), so no value
// in it may point into state a later request reuses. After a second
// request through the same server, the first recorder still holds its
// own request ID and Content-Length.
func TestAPIConformanceHeadersOutliveRequest(t *testing.T) {
	srv, _ := newTestServer(t, Config{Seed: 3})
	for _, c := range []struct{ route, first, second string }{
		{api.RouteV2Rank, `{"jobs":[{"templateHash":"1","span":[5]}]}`,
			`{"jobs":[{"templateHash":"2","span":[5]},{"templateHash":"3","span":[7]}]}`},
		{api.RouteV2Reward, `{"events":[{"eventId":"never-ranked","reward":1}]}`,
			`{"events":[{"eventId":"a","reward":1},{"eventId":"b","reward":1}]}`},
	} {
		serve := func(rid, body string) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, c.route, strings.NewReader(body))
			req.Header.Set(api.RequestIDHeader, rid)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			return rec
		}
		first := serve("first-"+c.route, c.first)
		second := serve("second-"+c.route, c.second)
		for _, r := range []struct {
			rec  *httptest.ResponseRecorder
			want string
		}{{first, "first-" + c.route}, {second, "second-" + c.route}} {
			if got := r.rec.Header().Get(api.RequestIDHeader); got != r.want {
				t.Errorf("%s: %s header reads %q, want %q", c.route, api.RequestIDHeader, got, r.want)
			}
			if got, want := r.rec.Header().Get("Content-Length"), strconv.Itoa(r.rec.Body.Len()); got != want {
				t.Errorf("%s %s: Content-Length %q for a %s-byte body", c.route, r.want, got, want)
			}
		}
		if first.Body.Len() == second.Body.Len() {
			t.Fatalf("%s: both bodies are %d bytes; the test needs them to differ", c.route, first.Body.Len())
		}
	}
}

// TestAPIConformanceOversizedHintFile checks the 64 MiB rollover cap:
// the truncation must be reported as body_too_large, not as a bogus
// parse error at the cut point (and never installed truncated).
func TestAPIConformanceOversizedHintFile(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 3})
	var body strings.Builder
	body.WriteString("qoadvisor-hints v1 day=1\n")
	// Valid lines all the way past the cap, so a scanner that parsed
	// the truncated body would accept it.
	line := "00000000000abc12,T1,-R040,1\n"
	for body.Len() <= maxHintBody {
		body.WriteString(line)
	}
	resp, err := http.Post(ts.URL+api.RouteV2Hints, "text/plain", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	expectError(t, resp, http.StatusRequestEntityTooLarge, api.CodeBodyTooLarge)
	if srv.Cache().Size() != 0 || srv.Cache().Generation() != 0 {
		t.Errorf("truncated hint file was installed: size %d gen %d",
			srv.Cache().Size(), srv.Cache().Generation())
	}
}

// TestAPIConformanceSingleVsBatchRank proves a job gets the same
// steering decision however it arrives: the hint path through the
// embedded Server.Rank and through HTTP (deterministic), and the bandit
// path as N batches of one versus one batch of N across two servers
// with identical seeds (same rng sequence).
func TestAPIConformanceSingleVsBatchRank(t *testing.T) {
	cat := rules.NewCatalog()

	t.Run("hint path", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Seed: 5})
		if _, err := srv.InstallHints([]sis.Hint{
			{TemplateHash: 0x77, TemplateID: "T7", Flip: cat.FlipFor(52), Day: 3},
		}); err != nil {
			t.Fatal(err)
		}
		job := api.RankRequest{TemplateHash: 0x77, Span: []int{52}}

		embedded, err := srv.Rank(job)
		if err != nil {
			t.Fatal(err)
		}
		batch := decodeJSON[api.BatchRankResponse](t, postJSON(t, ts.URL+api.RouteV2Rank,
			api.BatchRankRequest{Jobs: []api.RankRequest{job}}))
		if len(batch.Results) != 1 || batch.Results[0].Error != nil {
			t.Fatalf("batch = %+v", batch)
		}
		if embedded != batch.Results[0].RankResponse {
			t.Errorf("embedded = %+v\nhttp     = %+v, want identical hint decisions", embedded, batch.Results[0].RankResponse)
		}
		if batch.Generation != 1 || batch.RequestID == "" {
			t.Errorf("batch envelope generation=%d requestId=%q", batch.Generation, batch.RequestID)
		}
	})

	t.Run("bandit path", func(t *testing.T) {
		// Same seed, and a 6-job batch is one inline chunk (rankChunk):
		// the rng sequences align, so decision i of the one-at-a-time
		// stream must equal decision i of the batch (event IDs carry a
		// per-instance nonce and are excluded).
		_, ts1 := newTestServer(t, Config{Seed: 9})
		_, ts2 := newTestServer(t, Config{Seed: 9})
		jobs := make([]api.RankRequest, 6)
		for i := range jobs {
			jobs[i] = api.RankRequest{
				TemplateHash: api.TemplateHash(i + 1),
				Span:         []int{3 + i, 40, 100 + i},
				RowCount:     float64(1000 * (i + 1)),
				BytesRead:    float64(int64(1) << (10 + i)),
			}
		}
		var single []api.RankResponse
		for _, job := range jobs {
			single = append(single, rankOne(t, ts1.URL, job))
		}
		batch := decodeJSON[api.BatchRankResponse](t, postJSON(t, ts2.URL+api.RouteV2Rank,
			api.BatchRankRequest{Jobs: jobs}))
		if len(batch.Results) != len(jobs) {
			t.Fatalf("batch returned %d results for %d jobs", len(batch.Results), len(jobs))
		}
		for i, res := range batch.Results {
			if res.Error != nil {
				t.Fatalf("job %d: batch error %v", i, res.Error)
			}
			got, want := res.RankResponse, single[i]
			got.EventID, want.EventID = "", ""
			if got != want {
				t.Errorf("job %d: single = %+v\n          batch  = %+v, want identical decisions", i, want, got)
			}
		}
	})
}

func TestV2BatchRankMixedResults(t *testing.T) {
	cat := rules.NewCatalog()
	srv, ts := newTestServer(t, Config{Seed: 21})
	if _, err := srv.InstallHints([]sis.Hint{
		{TemplateHash: 0x10, TemplateID: "T0", Flip: cat.FlipFor(44), Day: 2},
	}); err != nil {
		t.Fatal(err)
	}

	batch := api.BatchRankRequest{Jobs: []api.RankRequest{
		{TemplateHash: 0x10, Span: []int{44}},             // hint hit
		{TemplateHash: 0x11, Span: []int{44, 60}},         // bandit
		{TemplateHash: 0x12, Span: []int{}},               // invalid: empty span
		{TemplateHash: 0x13, Span: []int{rules.NumRules}}, // invalid: out of range
	}}
	resp := postJSON(t, ts.URL+api.RouteV2Rank, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (per-job errors ride inside)", resp.StatusCode)
	}
	if rid := resp.Header.Get(api.RequestIDHeader); rid == "" {
		t.Error("missing X-Request-Id response header")
	}
	out := decodeJSON[api.BatchRankResponse](t, resp)
	if len(out.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(out.Results))
	}
	if out.Results[0].Source != api.SourceHint || out.Results[0].Error != nil {
		t.Errorf("job 0 = %+v, want hint hit", out.Results[0])
	}
	if out.Results[1].Source != api.SourceBandit || out.Results[1].EventID == "" {
		t.Errorf("job 1 = %+v, want bandit decision", out.Results[1])
	}
	for i := 2; i < 4; i++ {
		if out.Results[i].Error == nil || out.Results[i].Error.Code != api.CodeInvalidRequest {
			t.Errorf("job %d error = %+v, want %s", i, out.Results[i].Error, api.CodeInvalidRequest)
		}
	}
}

func TestV2BatchReward(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 8})

	var events []api.RewardEvent
	val := 1.25
	for i := 0; i < 3; i++ {
		rr, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{7 + i}})
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, api.RewardEvent{EventID: rr.EventID, Reward: &val})
	}
	events = append(events,
		api.RewardEvent{EventID: "ev-nope", Reward: &val}, // unknown
		api.RewardEvent{EventID: events[0].EventID},       // missing reward
	)

	resp := postJSON(t, ts.URL+api.RouteV2Reward, api.BatchRewardRequest{Events: events})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch reward status = %d, want 202", resp.StatusCode)
	}
	out := decodeJSON[api.BatchRewardResponse](t, resp)
	if out.Queued != 3 || len(out.Rejected) != 2 {
		t.Fatalf("batch reward = %+v, want 3 queued 2 rejected", out)
	}
	if out.Rejected[0].Index != 3 || out.Rejected[0].Error.Code != api.CodeUnknownEvent {
		t.Errorf("rejection 0 = %+v, want unknown_event at index 3", out.Rejected[0])
	}
	if out.Rejected[1].Index != 4 || out.Rejected[1].Error.Code != api.CodeInvalidRequest {
		t.Errorf("rejection 1 = %+v, want invalid_request at index 4", out.Rejected[1])
	}

	srv.Ingestor().Drain()
	if st := srv.Ingestor().Stats(); st.Applied != 3 {
		t.Errorf("applied = %d, want 3", st.Applied)
	}
}

func TestV2RewardQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, Config{Seed: 8})
	rr, err := srv.Rank(api.RankRequest{TemplateHash: 1, Span: []int{7}})
	if err != nil {
		t.Fatal(err)
	}
	// Closing the ingestor makes every enqueue report backpressure —
	// the same path a saturated queue takes.
	srv.Close()
	val := 1.0
	resp := postJSON(t, ts.URL+api.RouteV2Reward,
		api.BatchRewardRequest{Events: []api.RewardEvent{{EventID: rr.EventID, Reward: &val}}})
	expectError(t, resp, http.StatusServiceUnavailable, api.CodeQueueFull)

	// A malformed straggler must not mask the backpressure: nothing was
	// queued and queue_full is among the rejections, so the batch still
	// 503s (a 202 here would defeat the client's retry and silently
	// drop every reward that would succeed on retry).
	mixed := postJSON(t, ts.URL+api.RouteV2Reward,
		api.BatchRewardRequest{Events: []api.RewardEvent{
			{EventID: ""}, // invalid_request
			{EventID: rr.EventID, Reward: &val},
		}})
	expectError(t, mixed, http.StatusServiceUnavailable, api.CodeQueueFull)
}

func TestV2HealthzAndStats(t *testing.T) {
	cat := rules.NewCatalog()
	srv, ts := newTestServer(t, Config{Seed: 2})
	if _, err := srv.InstallHints([]sis.Hint{
		{TemplateHash: 0x42, TemplateID: "T", Flip: cat.FlipFor(41), Day: 1},
	}); err != nil {
		t.Fatal(err)
	}

	// Propagate a caller-chosen correlation ID.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+api.RouteV2Healthz, nil)
	req.Header.Set(api.RequestIDHeader, "corr-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(api.RequestIDHeader); got != "corr-123" {
		t.Errorf("request-id header = %q, want propagated corr-123", got)
	}
	health := decodeJSON[api.HealthResponse](t, resp)
	if health.Status != api.HealthOK || health.Generation != 1 || health.Hints != 1 || health.RequestID != "corr-123" {
		t.Errorf("healthz = %+v", health)
	}

	// Drive one rank and one 405 so the route metrics have content.
	rankOne(t, ts.URL, api.RankRequest{TemplateHash: 0x42, Span: []int{41}})
	mustGet(t, ts.URL+api.RouteV2Rank).Body.Close()

	stats := decodeJSON[api.StatsResponse](t, mustGet(t, ts.URL+api.RouteV2Stats))
	if stats.RequestID == "" {
		t.Error("v2 stats missing requestId")
	}
	rank := stats.Routes[api.RouteV2Rank]
	if rank.Count != 2 || rank.Errors != 1 {
		t.Errorf("route metrics for rank = %+v, want count 2 errors 1", rank)
	}
	if hz := stats.Routes[api.RouteV2Healthz]; hz.Count != 1 || hz.Errors != 0 {
		t.Errorf("route metrics for healthz = %+v, want count 1", hz)
	}
	if stats.HintHits != 1 {
		t.Errorf("hint hits = %d, want 1", stats.HintHits)
	}
}

func TestModelSnapshotOverHTTP(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snapshot")
	srv, ts := newTestServer(t, Config{Seed: 11, SnapshotPath: path})

	// Learn something first so the snapshot carries weights.
	rr, err := srv.Rank(api.RankRequest{TemplateHash: 1, Span: []int{3, 17}, RowCount: 10})
	if err != nil {
		t.Fatal(err)
	}
	srv.Ingestor().EnqueueBatch([]walrec.RewardEntry{{EventID: rr.EventID, Value: 1.9}})
	srv.Ingestor().Drain()

	// GET streams a loadable model.
	get := mustGet(t, ts.URL+api.RouteV2Snapshot)
	defer get.Body.Close()
	loaded, err := bandit.Load(get.Body, 1)
	if err != nil {
		t.Fatalf("GET snapshot is not loadable: %v", err)
	}

	// POST persists to the configured path; the file round-trips to the
	// same scores as the in-memory learner.
	post := postJSON(t, ts.URL+api.RouteV2Snapshot, nil)
	body := decodeJSON[api.SnapshotSaveResponse](t, post)
	if post.StatusCode != http.StatusOK || body.Path != path || body.Bytes <= 0 {
		t.Fatalf("POST snapshot: status %d body %+v", post.StatusCode, body)
	}
	var mem, file bytes.Buffer
	if err := srv.SnapshotTo(&mem); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&file); err != nil {
		t.Fatal(err)
	}
	if mem.String() != file.String() {
		t.Error("GET snapshot differs from in-memory model")
	}
}

func TestSnapshotPostWithoutPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1})
	resp := postJSON(t, ts.URL+api.RouteV2Snapshot, nil)
	expectError(t, resp, http.StatusConflict, api.CodeSnapshotUnconfigured)
}

func TestBatchRankTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 1})
	jobs := make([]api.RankRequest, api.MaxRankBatch+1)
	for i := range jobs {
		jobs[i] = api.RankRequest{TemplateHash: api.TemplateHash(i), Span: []int{1}}
	}
	resp := postJSON(t, ts.URL+api.RouteV2Rank, api.BatchRankRequest{Jobs: jobs})
	expectError(t, resp, http.StatusBadRequest, api.CodeInvalidRequest)
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

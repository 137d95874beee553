package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
)

// isTimeout reports whether err is a deadline expiring: the context's
// own error, or a net.Error that says it timed out.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || errors.As(err, &ne) && ne.Timeout()
}

// stallServer answers every request through h, and releases whatever
// h still blocks on when the test ends.
func stallServer(t *testing.T, h func(w http.ResponseWriter, r *http.Request, release <-chan struct{})) *httptest.Server {
	t.Helper()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h(w, r, release) }))
	t.Cleanup(func() {
		close(release)
		ts.Close()
	})
	return ts
}

// stall blocks until the client goes away or the test ends.
func stall(r *http.Request, release <-chan struct{}) {
	select {
	case <-r.Context().Done():
	case <-release:
	}
}

// namedCall is one client call, named for messages.
type namedCall struct {
	name string
	call func(ctx context.Context, c *client.Client) error
}

// calls are the three ways a client reads a response: a batch into a
// pooled buffer, a JSON call and the health probe.
var calls = []namedCall{
	{"RankBatch", func(ctx context.Context, c *client.Client) error {
		_, err := c.RankBatch(ctx, []api.RankRequest{{TemplateHash: 1, Span: []int{3}}})
		return err
	}},
	{"Stats", func(ctx context.Context, c *client.Client) error {
		_, err := c.Stats(ctx)
		return err
	}},
	{"Health", func(ctx context.Context, c *client.Client) error {
		_, err := c.Health(ctx)
		return err
	}},
}

// TestAPIConformanceClientTimeout: WithTimeout bounds each attempt end
// to end, as http.Client's Timeout did — a server that stalls before
// its headers or halfway through its body fails the call with a
// timeout — and a queue_full retry gets a deadline of its own.
func TestAPIConformanceClientTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ctx := context.Background()
	stalls := map[string]func(w http.ResponseWriter, r *http.Request, release <-chan struct{}){
		"before its headers": func(w http.ResponseWriter, r *http.Request, release <-chan struct{}) {
			stall(r, release)
		},
		"halfway through its body": func(w http.ResponseWriter, r *http.Request, release <-chan struct{}) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, `{"status":"ok",`)
			w.(http.Flusher).Flush()
			stall(r, release)
		},
	}
	for name, h := range stalls {
		ts := stallServer(t, h)
		c := client.New(ts.URL, client.WithTimeout(timeout))
		for _, call := range calls {
			start := time.Now()
			err := call.call(ctx, c)
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("a server stalling %s held %s for %v under a %v timeout", name, call.name, took, timeout)
			}
			if !isTimeout(err) {
				t.Errorf("a server stalling %s: %s error %v, want a timeout", name, call.name, err)
			}
		}
	}

	// Three attempts of 100ms each outlast one 250ms deadline; each
	// attempt must get its own.
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(100 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		if attempts.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(api.ErrorResponse{Error: *api.Errorf(api.CodeQueueFull, "full")})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.BatchRewardResponse{Queued: 1})
	}))
	defer ts.Close()
	c := client.New(ts.URL, client.WithTimeout(250*time.Millisecond), client.WithRetries(3, time.Millisecond))
	if err := c.Reward(ctx, "ev1", 1); err != nil {
		t.Fatalf("reward after two queue_full retries: %v", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("server saw %d attempts, want 3", n)
	}
}

// contextRecorder is a RoundTripper that keeps the context of the last
// request it passed on.
type contextRecorder struct {
	http.RoundTripper
	last context.Context
}

func (r *contextRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	r.last = req.Context()
	return r.RoundTripper.RoundTrip(req)
}

// TestAPIConformanceClientStreamDeadline: a streamed body stays under
// its attempt's deadline until the caller closes it, and Close releases
// the deadline and leaves no goroutine behind.
func TestAPIConformanceClientStreamDeadline(t *testing.T) {
	const part = "qoadvisor-model v3\n"
	ts := stallServer(t, func(w http.ResponseWriter, r *http.Request, release <-chan struct{}) {
		io.WriteString(w, part)
		w.(http.Flusher).Flush()
		stall(r, release)
	})
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	rec := &contextRecorder{RoundTripper: tr}
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: rec, Timeout: time.Minute}))
	ctx := context.Background()
	before := runtime.NumGoroutine()

	body, err := c.BootstrapSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(part))
	if _, err := io.ReadFull(body, buf); err != nil || string(buf) != part {
		t.Fatalf("first read = %q, %v", buf, err)
	}
	if err := rec.last.Err(); err != nil {
		t.Fatalf("the stream's deadline ended before Close: %v", err)
	}
	body.Close()
	if err := rec.last.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("after Close the stream's context reports %v, want it released (context.Canceled)", err)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the stream closed, %d before it opened", n, before)
	}

	// Left open, the stream times out on a read past its deadline.
	c = client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 100 * time.Millisecond}))
	body, err = c.BootstrapSnapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()
	start := time.Now()
	_, err = io.Copy(io.Discard, body)
	if took := time.Since(start); took > 2*time.Second || !isTimeout(err) {
		t.Errorf("reading a stalled stream: %v after %v, want a timeout well within 2s", err, took)
	}
}

// TestAPIConformanceClientSharedDeadlineValues: an attempt under the
// shared deadline still carries the caller's values — a context key
// reaches the RoundTripper, an httptrace.ClientTrace hears of its
// connection — and a deadline within (15/16, 1] × Timeout of its start.
func TestAPIConformanceClientSharedDeadlineValues(t *testing.T) {
	const timeout = time.Minute
	ranked, _ := api.BatchRankResponse{RequestID: "r", Generation: 1, Results: []api.RankResult{{}}}.AppendJSON(nil)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.RouteV2Rank {
			w.Write(ranked)
			return
		}
		io.WriteString(w, `{"status":"ok"}`)
	}))
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	rec := &contextRecorder{RoundTripper: tr}
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: rec, Timeout: timeout}))
	for _, call := range calls {
		var gotConn atomic.Bool
		ctx := context.WithValue(context.Background(), ctxKey{}, "caller")
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { gotConn.Store(true) },
		})
		start := time.Now()
		if err := call.call(ctx, c); err != nil {
			t.Fatalf("%s: %v", call.name, err)
		}
		if v := rec.last.Value(ctxKey{}); v != "caller" {
			t.Errorf("%s: the RoundTripper saw %v under the caller's key, want %q", call.name, v, "caller")
		}
		if !gotConn.Load() {
			t.Errorf("%s: the caller's ClientTrace heard of no connection", call.name)
		}
		// The attempt started between start and now.
		if d, ok := rec.last.Deadline(); !ok || !d.After(start.Add(timeout-timeout/16)) || d.After(time.Now().Add(timeout)) {
			t.Errorf("%s: the attempt's deadline is %v after the call began (set %v), want it within (15/16, 1] × %v of the attempt's start",
				call.name, d.Sub(start), ok, timeout)
		}
	}
}

// TestAPIConformanceClientSharedDeadlineStall: an attempt that starts
// partway into the shared deadline's window — T/32 in, where it shares
// the window's deadline, or T/8 in, where it needs a new one — still
// gets more than 15/16 of Timeout T: a stalled server fails it no
// earlier than that, and well within 2s.
func TestAPIConformanceClientSharedDeadlineStall(t *testing.T) {
	const timeout = 320 * time.Millisecond
	ts := stallServer(t, func(w http.ResponseWriter, r *http.Request, release <-chan struct{}) {
		if r.URL.Path == api.RouteV2Healthz {
			io.WriteString(w, `{"status":"ok"}`)
			return
		}
		stall(r, release)
	})
	c := client.New(ts.URL, client.WithTimeout(timeout))
	ctx := context.Background()
	for i, pause := range []time.Duration{timeout / 32, timeout / 8} {
		call := calls[i]
		// A quick call starts a window; the stalled one starts in it.
		if _, err := c.Health(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(pause)
		start := time.Now()
		err := call.call(ctx, c)
		took := time.Since(start)
		if !isTimeout(err) {
			t.Errorf("%s against a stalled server: error %v, want a timeout", call.name, err)
		}
		if took < timeout-timeout/16 || took > 2*time.Second {
			t.Errorf("%s against a stalled server, %v into a window, failed after %v under a %v timeout, want between %v and 2s",
				call.name, pause, took, timeout, timeout-timeout/16)
		}
	}
}

// TestAPIConformanceClientCanceledMidStall: a caller that can cancel
// its call still can — canceled while the server stalls, the attempt
// ends with context.Canceled, long before the client's Timeout.
func TestAPIConformanceClientCanceledMidStall(t *testing.T) {
	ts := stallServer(t, func(w http.ResponseWriter, r *http.Request, release <-chan struct{}) {
		stall(r, release)
	})
	c := client.New(ts.URL, client.WithTimeout(time.Minute))
	for _, call := range calls {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(50*time.Millisecond, cancel)
		start := time.Now()
		err := call.call(ctx, c)
		took := time.Since(start)
		timer.Stop()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s canceled mid-stall: error %v, want context.Canceled", call.name, err)
		}
		if took > 2*time.Second {
			t.Errorf("%s canceled mid-stall returned after %v", call.name, took)
		}
	}
}

// TestAPIConformanceClientOneEpoch: 100 sequential calls well inside
// one window share one deadline context, and leave no goroutine behind
// once the connection is closed.
func TestAPIConformanceClientOneEpoch(t *testing.T) {
	url, jobs, events := batchFixture(t)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := client.New(url, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: time.Minute}))
	rank, _ := batchCalls(t, c, jobs, events)
	before := runtime.NumGoroutine()
	if client.Epoch(c) != nil {
		t.Fatal("a client that has sent nothing holds a shared deadline")
	}
	rank()
	first := client.Epoch(c)
	if first == nil {
		t.Fatal("no shared deadline after a call under context.Background")
	}
	for range 99 {
		rank()
	}
	if client.Epoch(c) != first {
		t.Error("100 calls inside one window made more than one shared deadline")
	}
	if err := first.Err(); err != nil {
		t.Errorf("the shared deadline ended inside its window: %v", err)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after 100 calls and closing the connection, %d before them", n, before)
	}
}

// TestClientEpochConcurrentCalls: 8 goroutines × 50 RankBatch calls
// through one Client with a 160ms Timeout cross epoch replacements.
// Every call succeeds, every attempt's deadline is at most Timeout
// after it reached the transport, and the shared deadlines seen start
// at least Timeout/16 apart: a window makes one epoch however many
// attempts race to replace the last.
func TestClientEpochConcurrentCalls(t *testing.T) {
	const timeout = 160 * time.Millisecond
	url, jobs, _ := batchFixture(t)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	var (
		mu        sync.Mutex
		deadlines = map[time.Time]bool{}
	)
	rt := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		d, ok := req.Context().Deadline()
		if left := time.Until(d); !ok || left > timeout {
			t.Errorf("an attempt reached the transport with deadline %v away (set %v), want at most %v", left, ok, timeout)
		}
		mu.Lock()
		deadlines[d] = true
		mu.Unlock()
		return tr.RoundTrip(req)
	})
	c := client.New(url, client.WithHTTPClient(&http.Client{Transport: rt, Timeout: timeout}))
	ctx := context.Background()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if resp, err := c.RankBatch(ctx, jobs); err != nil || len(resp.Results) != len(jobs) {
					t.Errorf("RankBatch = %d results, %v", len(resp.Results), err)
					return
				}
				time.Sleep(timeout / 64)
			}
		}()
	}
	wg.Wait()
	seen := slices.SortedFunc(maps.Keys(deadlines), time.Time.Compare)
	if len(seen) < 2 {
		t.Fatalf("%d shared deadlines over 400 calls spread over at least %v; the test needs them to cross a replacement", len(seen), 50*timeout/64)
	}
	for i := 1; i < len(seen); i++ {
		if gap := seen[i].Sub(seen[i-1]); gap < timeout/16 {
			t.Errorf("shared deadlines %d and %d are %v apart, want at least %v", i-1, i, gap, timeout/16)
		}
	}
}

// roundTripFunc is a RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestAPIConformanceClientCookieJar: a cookie a response sets lands in
// the client's jar and goes out on its next request.
func TestAPIConformanceClientCookieJar(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Cookie"))
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "s42", Path: "/"})
		io.WriteString(w, "{}")
	}))
	defer ts.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(ts.URL, client.WithHTTPClient(&http.Client{Jar: jar}))
	ctx := context.Background()
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if s := got.Load().(string); s != "" {
		t.Errorf("first request sent Cookie %q, want none", s)
	}
	u, _ := url.Parse(ts.URL)
	if cs := jar.Cookies(u); len(cs) != 1 || cs[0].Name != "session" || cs[0].Value != "s42" {
		t.Errorf("jar holds %v after the response, want session=s42", cs)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if s := got.Load().(string); s != "session=s42" {
		t.Errorf("second request sent Cookie %q, want session=s42", s)
	}
}

// TestAPIConformanceClientRedirectNotFollowed: the protocol has no
// redirects, so a 3xx is an error the caller sees, never a second
// request (which http.Client made, turning a POST into a GET).
func TestAPIConformanceClientRedirectNotFollowed(t *testing.T) {
	var followed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/elsewhere" {
			followed.Add(1)
			io.WriteString(w, "{}")
			return
		}
		w.Header().Set("Location", "/elsewhere")
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	stream := namedCall{"BootstrapSnapshot", func(ctx context.Context, c *client.Client) error {
		body, err := c.BootstrapSnapshot(ctx)
		if err == nil {
			body.Close()
		}
		return err
	}}
	for _, call := range append(slices.Clone(calls), stream) {
		err := call.call(ctx, c)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.HTTPStatus != http.StatusTemporaryRedirect {
			t.Errorf("%s answered 307: error %v, want an *api.Error with HTTPStatus 307", call.name, err)
		}
	}
	if n := followed.Load(); n != 0 {
		t.Errorf("the client followed %d redirects, want none", n)
	}
}

// TestAPIConformanceClientDialRefused: a transport error reaches the
// caller as the *url.Error http.Client made of it, naming the method
// and the request's URL.
func TestAPIConformanceClientDialRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ln.Close()
	c := client.New(base)
	ctx := context.Background()
	for _, tc := range []struct {
		op, path string
		call     func(ctx context.Context, c *client.Client) error
	}{
		{"Post", api.RouteV2Rank, calls[0].call},
		{"Get", api.RouteV2Stats, calls[1].call},
		{"Get", api.RouteV2Healthz, calls[2].call},
	} {
		err := tc.call(ctx, c)
		var ue *url.Error
		if !errors.As(err, &ue) || ue.Op != tc.op || ue.URL != base+tc.path {
			t.Errorf("%s %s on a refused dial: error %#v, want a *url.Error with Op %q and URL %q", tc.op, tc.path, err, tc.op, base+tc.path)
		}
	}
}

// Package client is the typed Go client for QO-Advisor's steering
// protocol (qoadvisor/internal/api): one implementation of timeouts,
// retry-on-queue_full (reward-queue backpressure), error envelope decoding,
// and batch helpers, shared by the server CLI, the examples, and the
// benchmarks instead of hand-rolled JSON. Every request it sends is
// built by newRequest. An attempt ends within (15/16·T, T] of its start
// under a Timeout T: attempts whose caller's context cannot be canceled
// share one deadline per T/16 window instead of making one each.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
)

// Client talks the versioned steering protocol to one server.
// Zero-value is unusable; use New. Client is safe for concurrent use.
type Client struct {
	// url is the base URL parsed once, what every request's URL starts
	// from; urlErr is why it did not parse, returned by every call.
	url     url.URL
	urlErr  error
	hc      *http.Client
	retries int
	backoff time.Duration
	// epoch is the deadline the current window's attempts share;
	// epochMu serialises its replacement.
	epoch   atomic.Pointer[epoch]
	epochMu sync.Mutex
}

// epoch is one shared deadline: a context that ends at deadline.
type epoch struct {
	ctx      context.Context
	deadline time.Time
	// cancel is never called: the epoch ends when its deadline passes,
	// and the attempts still under it may be in flight until then. It
	// is kept only so that it is not lost.
	cancel context.CancelFunc
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (pooling, TLS, test doubles).
// The client reads three of its fields: Transport (nil =
// http.DefaultTransport), Timeout T (each attempt ends within
// (15/16·T, T] of its start; a streamed body at T) and Jar.
// CheckRedirect is unused: the protocol has no redirects, and a 3xx is
// returned as an *api.Error. The RoundTripper must not modify a
// request's header, as the http.RoundTripper contract says: requests
// without a cookie jar share one read-only header map.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout caps each attempt end to end (default 10s): an attempt
// ends within (15/16·d, d] of its start, since the attempts of a
// context that cannot be canceled share one deadline per d/16 window.
// A streamed body, and a call whose context can be canceled, gets a
// deadline d of its own.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		hc := *c.hc
		hc.Timeout = d
		c.hc = &hc
	}
}

// New builds a client for a server base URL ("http://host:port", with
// or without a path prefix; a query or fragment on it is dropped, and
// each route is appended to its path). A base that does not parse
// fails every call with url.Parse's error, which quotes the base
// without its trailing slash. Defaults: 10s per-attempt timeout, 3
// retries on 503 with 50ms base backoff.
func New(base string, opts ...Option) *Client {
	c := &Client{
		hc:      &http.Client{Timeout: 10 * time.Second},
		retries: 3,
		backoff: 50 * time.Millisecond,
	}
	// Cut a query and a fragment off where url.Parse would, so that the
	// slash trimmed is the path's.
	base, _, _ = strings.Cut(base, "#")
	base, _, _ = strings.Cut(base, "?")
	if u, err := url.Parse(strings.TrimRight(base, "/")); err != nil {
		c.urlErr = err
	} else {
		c.url = *u
		// What http.NewRequest does to a host with an empty port.
		if strings.LastIndex(c.url.Host, ":") > strings.LastIndex(c.url.Host, "]") {
			c.url.Host = strings.TrimSuffix(c.url.Host, ":")
		}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// jsonHeader and noHeader are the header maps of every JSON request and
// every request without a body type. The transport only reads a
// request's header map, so the two are shared and never written; with
// a cookie jar each request gets a map of its own, which roundTrip adds
// the jar's cookies to.
var (
	jsonHeader = http.Header{"Content-Type": {"application/json"}}
	noHeader   = http.Header{}
)

// outgoing is what a request points into besides its header: its URL,
// the reader over its payload and, under a shared deadline, its
// context, allocated together.
type outgoing struct {
	url  url.URL
	body bytes.Reader
	ctx  attemptCtx
}

// attemptCtx is the context of an attempt under a shared epoch: the
// epoch's deadline and cancellation, the caller's values. Value asks the
// caller first and then the epoch, so the transport's own child context
// finds the epoch's cancelCtx and registers in its children map, where a
// context.WithTimeout per attempt would make a map and a Done channel.
type attemptCtx struct {
	caller, epoch context.Context
}

func (a *attemptCtx) Deadline() (time.Time, bool) { return a.epoch.Deadline() }
func (a *attemptCtx) Done() <-chan struct{}       { return a.epoch.Done() }
func (a *attemptCtx) Err() error                  { return a.epoch.Err() }

func (a *attemptCtx) Value(key any) any {
	if v := a.caller.Value(key); v != nil {
		return v
	}
	return a.epoch.Value(key)
}

// shared returns the epoch for an attempt starting now: the current one
// while more than 15/16 of hc.Timeout is left of it, else a new one
// that ends hc.Timeout from now. So a new epoch starts at most every
// Timeout/16 and at most 17 are live.
func (c *Client) shared() *epoch {
	t := c.hc.Timeout
	if e := c.epoch.Load(); e != nil && time.Until(e.deadline) > t-t/16 {
		return e
	}
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	now := time.Now()
	e := c.epoch.Load()
	if e == nil || e.deadline.Sub(now) <= t-t/16 {
		e = &epoch{deadline: now.Add(t)}
		e.ctx, e.cancel = context.WithDeadline(context.Background(), e.deadline)
		c.epoch.Store(e)
	}
	return e
}

// newRequest builds one attempt's request: the request net/http's own
// constructor makes of base+path, ctx and payload (nil = no body), with
// a Content-Type header, in fewer allocations. A non-nil shared is an
// epoch the attempt runs under: the request's context is then an
// attemptCtx over ctx and it. The URL is the parsed base with path
// appended: path is a route constant, plus an already-escaped query.
// The body stays an io.NopCloser over a *bytes.Reader, which net/http
// knows to be in memory and writes in one flush with the header;
// GetBody lets the transport replay it on a kept-alive connection that
// failed before a byte was written.
func (c *Client) newRequest(ctx, shared context.Context, method, path, contentType string, payload []byte) (*http.Request, error) {
	if c.urlErr != nil {
		return nil, c.urlErr
	}
	if ctx == nil {
		return nil, errors.New("net/http: nil Context")
	}
	o := &outgoing{url: c.url}
	p, q, _ := strings.Cut(path, "?")
	o.url.Path, o.url.RawQuery = c.url.Path+p, q
	if c.url.RawPath != "" {
		o.url.RawPath = c.url.RawPath + p
	}
	req := http.Request{
		Method:     method,
		URL:        &o.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Host:       o.url.Host,
	}
	switch {
	case c.hc.Jar == nil && contentType == "":
		req.Header = noHeader
	case c.hc.Jar == nil && contentType == "application/json":
		req.Header = jsonHeader
	case contentType == "":
		req.Header = make(http.Header)
	default:
		req.Header = http.Header{"Content-Type": {contentType}}
	}
	switch {
	case len(payload) > 0:
		o.body.Reset(payload)
		req.Body, req.ContentLength = io.NopCloser(&o.body), int64(len(payload))
		req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(payload)), nil }
	case payload != nil:
		req.Body, req.GetBody = http.NoBody, noBody
	}
	if shared != nil {
		o.ctx = attemptCtx{caller: ctx, epoch: shared}
		ctx = &o.ctx
	}
	return req.WithContext(ctx), nil
}

func noBody() (io.ReadCloser, error) { return http.NoBody, nil }

// do runs one JSON protocol call: marshal in (nil = no body) and hand
// it to call.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	contentType := ""
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
		contentType = "application/json"
	}
	return c.call(ctx, method, path, contentType, payload, out)
}

// call sends payload and decodes a 2xx response's JSON into out (nil =
// ignore the body).
func (c *Client) call(ctx context.Context, method, path, contentType string, payload []byte, out any) error {
	resp, stop, err := c.send(ctx, method, path, contentType, payload)
	if err != nil {
		return err
	}
	defer finish(resp, stop)
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// finish drains and closes a 2xx response, then releases its attempt's
// deadline: json.Decoder stops at the end of the value, and a body
// closed with bytes unread costs the keep-alive connection.
func finish(resp *http.Response, stop context.CancelFunc) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	stop()
}

// nop is the stop of an attempt with no deadline of its own.
func nop() {}

// roundTrip runs one attempt: the request newRequest builds, handed
// straight to hc.Transport. Around it, it does what http.Client.send
// does — cookies from and back to hc.Jar, a transport error returned as
// a *url.Error — and none of what http.Client.do adds: no redirect is
// followed (a 3xx comes back as it is) and nothing is copied for one.
// With hc.Timeout set, an attempt whose context has no Done channel
// and no deadline runs under the client's shared epoch (it ends within
// (15/16·Timeout, Timeout] of its start). A stream, whose body keeps
// its deadline until Close, and an attempt whose caller can cancel it
// get a deadline of their own — unless the caller's comes first, as
// qoload's per-op deadline does, where http.Client did not make one
// either. The caller reads the response and then calls the returned
// stop, which releases it. On error there is nothing to stop.
func (c *Client) roundTrip(ctx context.Context, method, path, contentType string, payload []byte, stream bool) (*http.Response, context.CancelFunc, error) {
	stop := context.CancelFunc(nop)
	var shared context.Context
	if ctx != nil && c.hc.Timeout > 0 {
		switch d, ok := ctx.Deadline(); {
		case !stream && !ok && ctx.Done() == nil:
			shared = c.shared().ctx
		case !ok || time.Until(d) > c.hc.Timeout:
			ctx, stop = context.WithTimeout(ctx, c.hc.Timeout)
		}
	}
	req, err := c.newRequest(ctx, shared, method, path, contentType, payload)
	if err != nil {
		stop()
		return nil, nil, err
	}
	jar := c.hc.Jar
	if jar != nil {
		for _, ck := range jar.Cookies(req.URL) {
			req.AddCookie(ck)
		}
	}
	rt := c.hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	resp, err := rt.RoundTrip(req)
	if err != nil {
		stop()
		// The error http.Client returns: Op "Post", "Get", ….
		return nil, nil, &url.Error{Op: method[:1] + strings.ToLower(method[1:]), URL: req.URL.Redacted(), Err: err}
	}
	if jar != nil {
		if rc := resp.Cookies(); len(rc) > 0 {
			jar.SetCookies(req.URL, rc)
		}
	}
	return resp, stop, nil
}

// send is the transport loop under every retried call: a fresh request
// from payload per attempt, so retries are never partial, and queue_full
// 503s retried with backoff, each attempt under the deadline roundTrip
// gives it. It returns a 2xx response for the caller to read and
// finish, with its attempt's stop; any other status becomes an
// *api.Error once the retry budget is spent.
func (c *Client) send(ctx context.Context, method, path, contentType string, payload []byte) (*http.Response, context.CancelFunc, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			wait := c.backoff << (attempt - 1)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return nil, nil, fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
			}
		}

		resp, stop, err := c.roundTrip(ctx, method, path, contentType, payload, false)
		if err != nil {
			return nil, nil, fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if resp.StatusCode/100 == 2 {
			return resp, stop, nil
		}
		apiErr := DecodeError(resp)
		resp.Body.Close()
		stop()
		// Retry only backpressure: queue_full means nothing was accepted
		// and the condition is transient. Other 503s are not — notably a
		// degraded follower's /v2/healthz, where re-probing the same
		// stale node burns the backoff budget a rotation could have
		// spent failing over to a healthy one.
		if resp.StatusCode == http.StatusServiceUnavailable && apiErr.Code == api.CodeQueueFull && attempt < c.retries {
			lastErr = apiErr
			continue
		}
		return nil, nil, apiErr
	}
}

// DecodeError turns a non-2xx response into an *api.Error, synthesizing
// an envelope when the body does not carry one (proxies, panics). It is
// exported for callers that drive raw HTTP against the protocol (the
// replication tailer reads a streaming route the typed client does not
// wrap) so envelope decoding has exactly one implementation.
func DecodeError(resp *http.Response) *api.Error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	return decodeErrorBytes(resp.StatusCode, body)
}

// decodeErrorBytes decodes an already-read error body (Health reads
// the body up front to try the degraded HealthResponse shape first).
func decodeErrorBytes(status int, body []byte) *api.Error {
	var env api.ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return &api.Error{
			Code:       api.CodeInternal,
			Message:    fmt.Sprintf("HTTP %d with no error envelope", status),
			HTTPStatus: status,
		}
	}
	e := env.Error
	e.HTTPStatus = status
	return &e
}

// Rank steers one job: a /v2/rank batch of one, with the job's per-item
// error (if any) surfaced as the returned *api.Error.
func (c *Client) Rank(ctx context.Context, job api.RankRequest) (api.RankResponse, error) {
	resp, err := c.RankBatch(ctx, []api.RankRequest{job})
	if err != nil {
		return api.RankResponse{}, err
	}
	if len(resp.Results) != 1 {
		return api.RankResponse{}, fmt.Errorf("client: %d results for a batch of one", len(resp.Results))
	}
	if e := resp.Results[0].Error; e != nil {
		e.HTTPStatus = api.StatusForCode(e.Code)
		return api.RankResponse{}, e
	}
	return resp.Results[0].RankResponse, nil
}

// RankBatch steers up to api.MaxRankBatch jobs in one /v2/rank call.
// Per-job failures ride inside Results; only transport- or batch-level
// problems surface as the returned error.
func (c *Client) RankBatch(ctx context.Context, jobs []api.RankRequest) (api.BatchRankResponse, error) {
	// A fresh buffer per call, never a pooled one: http.Transport may
	// still be reading a request body after Do returns.
	payload, err := api.BatchRankRequest{Jobs: jobs}.MarshalJSON()
	if err != nil {
		return api.BatchRankResponse{}, fmt.Errorf("client: encoding %s %s: %w", http.MethodPost, api.RouteV2Rank, err)
	}
	out := api.BatchRankResponse{Results: make([]api.RankResult, 0, len(jobs))}
	bb, err := c.postBatch(ctx, api.RouteV2Rank, payload)
	if err != nil {
		return out, err
	}
	defer bb.release()
	if err := bb.dec.DecodeBatchRankResponse(bb.buf.Bytes(), &out); err != nil {
		return out, fmt.Errorf("client: decoding %s %s response: %w", http.MethodPost, api.RouteV2Rank, err)
	}
	return out, nil
}

// RewardBatch feeds a telemetry batch to /v2/reward. The transport
// retries whole-batch 503s (nothing was queued in that case); per-event
// rejections are returned in the response for the caller to inspect.
func (c *Client) RewardBatch(ctx context.Context, events []api.RewardEvent) (api.BatchRewardResponse, error) {
	payload, err := api.BatchRewardRequest{Events: events}.MarshalJSON()
	if err != nil {
		return api.BatchRewardResponse{}, fmt.Errorf("client: encoding %s %s: %w", http.MethodPost, api.RouteV2Reward, err)
	}
	var out api.BatchRewardResponse
	bb, err := c.postBatch(ctx, api.RouteV2Reward, payload)
	if err != nil {
		return out, err
	}
	defer bb.release()
	if err := bb.dec.DecodeBatchRewardResponse(bb.buf.Bytes(), &out); err != nil {
		return out, fmt.Errorf("client: decoding %s %s response: %w", http.MethodPost, api.RouteV2Reward, err)
	}
	return out, nil
}

// batchBody is a response buffer with the decoder that walks it. Unlike
// a request body, a response the client has itself read to EOF has no
// other reader, and every string the decoder hands out is cut from its
// own arena for that body (api.Decoder) — a copy, which the next body
// never rewrites — so the buffer can go back to a pool while the
// caller keeps the event IDs, and a kept ID pins the strings of its
// response, not the response.
type batchBody struct {
	buf bytes.Buffer
	dec api.Decoder
}

var batchBodies = sync.Pool{New: func() any { return new(batchBody) }}

// release returns bb to the pool. Nothing over 1 MiB goes back: one
// 4,096-job response must not stay pinned behind a stream of 16-job
// ones.
func (bb *batchBody) release() {
	if bb.buf.Cap() <= 1<<20 {
		bb.dec.Release()
		batchBodies.Put(bb)
	}
}

// postBatch sends a batch payload to path and reads the 2xx response to
// EOF into a pooled batchBody, which the caller decodes and releases.
func (c *Client) postBatch(ctx context.Context, path string, payload []byte) (*batchBody, error) {
	resp, stop, err := c.send(ctx, http.MethodPost, path, "application/json", payload)
	if err != nil {
		return nil, err
	}
	bb := batchBodies.Get().(*batchBody)
	bb.buf.Reset()
	_, err = bb.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	stop()
	if err != nil {
		bb.release()
		return nil, fmt.Errorf("client: reading %s %s response: %w", http.MethodPost, path, err)
	}
	return bb, nil
}

// InstallHints uploads a SIS exchange-format hint file (the pipeline
// rollover). The body is read fully up front so 503 retries can replay
// it.
func (c *Client) InstallHints(ctx context.Context, hintFile io.Reader) (api.HintsInstallResponse, error) {
	payload, err := io.ReadAll(hintFile)
	if err != nil {
		return api.HintsInstallResponse{}, fmt.Errorf("client: reading hint file: %w", err)
	}
	var out api.HintsInstallResponse
	err = c.call(ctx, http.MethodPost, api.RouteV2Hints, "text/plain", payload, &out)
	return out, err
}

// Health probes /v2/healthz with a single attempt (a health probe
// reports the node's state NOW; retrying would only mask it). A
// degraded node — a follower whose replication tail went stale —
// answers 503 with the same HealthResponse body instead of an error
// envelope; that body is decoded and returned ALONGSIDE a degraded
// *api.Error, so rotations still treat the node as failed while
// operators see what is wrong with it.
func (c *Client) Health(ctx context.Context) (api.HealthResponse, error) {
	var out api.HealthResponse
	resp, stop, err := c.roundTrip(ctx, http.MethodGet, api.RouteV2Healthz, "", nil, false)
	if err != nil {
		return out, fmt.Errorf("client: GET %s: %w", api.RouteV2Healthz, err)
	}
	defer stop()
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil {
			return out, fmt.Errorf("client: decoding %s response: %w", api.RouteV2Healthz, derr)
		}
		return out, nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode == http.StatusServiceUnavailable {
		var hr api.HealthResponse
		if json.Unmarshal(body, &hr) == nil && hr.Status != "" {
			return hr, &api.Error{
				Code:       api.CodeDegraded,
				Message:    fmt.Sprintf("node reports status %q", hr.Status),
				HTTPStatus: resp.StatusCode,
			}
		}
	}
	return out, decodeErrorBytes(resp.StatusCode, body)
}

// Stats fetches /v2/stats (serving counters plus per-route metrics).
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := c.do(ctx, http.MethodGet, api.RouteV2Stats, nil, &out)
	return out, err
}

// Quarantine flips one template's safeguard state on the primary
// (POST /v2/quarantine). Action is api.QuarantineActionQuarantine or
// api.QuarantineActionRestore; the response reports the transition the
// server journaled. Followers answer 403 — point this at the primary.
func (c *Client) Quarantine(ctx context.Context, templateHash api.TemplateHash, action string) (api.QuarantineResponse, error) {
	var out api.QuarantineResponse
	err := c.do(ctx, http.MethodPost, api.RouteV2Quarantine,
		api.QuarantineRequest{TemplateHash: templateHash, Action: action}, &out)
	return out, err
}

// QuarantineList fetches the templates currently held in a durable
// safeguard state — quarantined or probation (GET /v2/quarantine).
func (c *Client) QuarantineList(ctx context.Context) (api.QuarantineListResponse, error) {
	var out api.QuarantineListResponse
	err := c.do(ctx, http.MethodGet, api.RouteV2Quarantine, nil, &out)
	return out, err
}

// getStream issues one GET and hands the 2xx body to the caller, who
// must Close it. The body stays under the attempt's deadline until then.
func (c *Client) getStream(ctx context.Context, path string) (io.ReadCloser, error) {
	resp, stop, err := c.roundTrip(ctx, http.MethodGet, path, "", nil, true)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		apiErr := DecodeError(resp)
		resp.Body.Close()
		stop()
		return nil, apiErr
	}
	if c.hc.Timeout <= 0 {
		return resp.Body, nil
	}
	return &stoppingBody{ReadCloser: resp.Body, stop: stop}, nil
}

// stoppingBody is a streamed body whose Close also releases its
// attempt's deadline, as http.Client's cancelTimerBody did.
type stoppingBody struct {
	io.ReadCloser
	stop context.CancelFunc
}

func (b *stoppingBody) Close() error {
	err := b.ReadCloser.Close()
	b.stop()
	return err
}

// BootstrapSnapshot streams the primary's replication bootstrap
// snapshot (GET /v2/wal/snapshot): a checkpoint-consistent model whose
// embedded WAL watermark is where a follower starts tailing. The
// caller must Close the returned reader.
func (c *Client) BootstrapSnapshot(ctx context.Context) (io.ReadCloser, error) {
	return c.getStream(ctx, api.RouteV2WALSnapshot)
}

// AuditRecords lists the journal records matching a filter
// (GET /v2/audit/records). filter holds the route's parameters: type,
// event, template, fromLsn, toLsn and limit.
func (c *Client) AuditRecords(ctx context.Context, filter url.Values) (api.AuditRecordsResponse, error) {
	var out api.AuditRecordsResponse
	path := api.RouteV2AuditRecords
	if len(filter) > 0 {
		path += "?" + filter.Encode()
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// AuditDecision fetches one event's decision trace
// (GET /v2/audit/decision?event=...).
func (c *Client) AuditDecision(ctx context.Context, eventID string) (api.AuditDecisionResponse, error) {
	var out api.AuditDecisionResponse
	path := api.RouteV2AuditDecision + "?event=" + url.QueryEscape(eventID)
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// AuditTemplate fetches a template's steering history
// (GET /v2/audit/template?template=...).
func (c *Client) AuditTemplate(ctx context.Context, hash api.TemplateHash) (api.AuditTemplateResponse, error) {
	var out api.AuditTemplateResponse
	path := api.RouteV2AuditTemplate + "?template=" + hash.String()
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// AuditAsOf asks the server to reconstruct its model as of an LSN and
// summarize the result (GET /v2/audit/asof?lsn=...). lsn 0 means "the
// journal's current end".
func (c *Client) AuditAsOf(ctx context.Context, lsn uint64) (api.AuditAsOfResponse, error) {
	var out api.AuditAsOfResponse
	path := api.RouteV2AuditAsOf
	if lsn > 0 {
		path += "?lsn=" + strconv.FormatUint(lsn, 10)
	}
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// TracesOptions filter a GET /v2/traces listing. Zero values mean "no
// filter".
type TracesOptions struct {
	// Route restricts to traces of one route (exact match).
	Route string
	// MinDur drops traces shorter than this.
	MinDur time.Duration
	// Limit caps the traces returned, newest first (0 = all retained).
	Limit int
}

// Traces fetches the retained slow-trace ring (GET /v2/traces) as a
// Chrome-trace document plus per-trace metadata.
func (c *Client) Traces(ctx context.Context, opts TracesOptions) (api.TracesResponse, error) {
	q := url.Values{}
	if opts.Route != "" {
		q.Set("route", opts.Route)
	}
	if opts.MinDur > 0 {
		q.Set("min_ms", strconv.FormatFloat(float64(opts.MinDur)/float64(time.Millisecond), 'f', -1, 64))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	path := api.RouteV2Traces
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var out api.TracesResponse
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Incidents lists the node's diagnostic capture bundles, newest first
// (GET /v2/incidents). A node without -incident-dir answers an empty
// list with Enabled false.
func (c *Client) Incidents(ctx context.Context) (api.IncidentsResponse, error) {
	var out api.IncidentsResponse
	err := c.do(ctx, http.MethodGet, api.RouteV2Incidents, nil, &out)
	return out, err
}

// TriggerIncident captures a diagnostic bundle now (POST /v2/incidents),
// bypassing the capture cooldown. Nodes without -incident-dir answer
// incidents_disabled.
func (c *Client) TriggerIncident(ctx context.Context) (api.IncidentResponse, error) {
	var out api.IncidentResponse
	err := c.do(ctx, http.MethodPost, api.RouteV2Incidents, nil, &out)
	return out, err
}

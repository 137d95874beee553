// Package client is the typed Go client for QO-Advisor's steering
// protocol (qoadvisor/internal/api): one implementation of timeouts,
// retry-on-queue_full (reward-queue backpressure), error envelope decoding,
// and batch helpers, shared by the server CLI, the examples, and the
// benchmarks instead of hand-rolled JSON.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"qoadvisor/internal/api"
)

// Client talks the versioned steering protocol to one server.
// Zero-value is unusable; use New. Client is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (pooling, TLS, test doubles).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout caps each attempt end to end (default 10s).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) {
		hc := *c.hc
		hc.Timeout = d
		c.hc = &hc
	}
}

// New builds a client for a server base URL ("http://host:port").
// Defaults: 10s per-attempt timeout, 3 retries on 503 with 50ms base
// backoff.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 10 * time.Second},
		retries: 3,
		backoff: 50 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do runs one protocol call: marshal in (nil = no body), retry
// queue_full 503s, decode either the typed response into out or the
// error envelope into an *api.Error. The request body is re-sent from
// the encoded bytes on each retry, so retries are never partial.
func (c *Client) do(ctx context.Context, method, path, contentType string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
		if contentType == "" {
			contentType = "application/json"
		}
	}
	return c.doRaw(ctx, method, path, contentType, payload, func(resp *http.Response) error {
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
		return nil
	})
}

// jsonContentType is the one Content-Type value of every JSON request.
// net/http only reads a request's header values, and an Add appends past
// len == cap into a copy, so the slice is shared and never written.
var jsonContentType = []string{"application/json"}

// doRaw is the transport loop under do, also used directly for
// non-JSON bodies (hint files) and streamed responses (snapshots).
// onOK consumes a 2xx response's body; non-2xx responses become
// *api.Error after the retry budget is spent.
func (c *Client) doRaw(ctx context.Context, method, path, contentType string, payload []byte, onOK func(*http.Response) error) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			wait := c.backoff << (attempt - 1)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
			}
		}

		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		switch contentType {
		case "":
		case "application/json":
			req.Header["Content-Type"] = jsonContentType
		default:
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("client: %s %s: %w", method, path, err)
		}
		if resp.StatusCode < 400 {
			err := onOK(resp)
			// Drain before Close: json.Decoder stops at the end of the
			// value, and a body closed with bytes unread costs the
			// keep-alive connection.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return err
		}
		apiErr := DecodeError(resp)
		resp.Body.Close()
		// Retry only backpressure: queue_full means nothing was accepted
		// and the condition is transient. Other 503s are not — notably a
		// degraded follower's /v2/healthz, where re-probing the same
		// stale node burns the backoff budget a rotation could have
		// spent failing over to a healthy one.
		if resp.StatusCode == http.StatusServiceUnavailable && apiErr.Code == api.CodeQueueFull && attempt < c.retries {
			lastErr = apiErr
			continue
		}
		return apiErr
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
	err = c.doRaw(ctx, http.MethodPost, api.RouteV2Rank, "application/json", payload, func(resp *http.Response) error {
		return decodeBatch(resp, api.RouteV2Rank, func(d *api.Decoder, body []byte) error {
			return d.DecodeBatchRankResponse(body, &out)
		})
	})
	return out, err
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
	err = c.doRaw(ctx, http.MethodPost, api.RouteV2Reward, "application/json", payload, func(resp *http.Response) error {
		return decodeBatch(resp, api.RouteV2Reward, func(d *api.Decoder, body []byte) error {
			return d.DecodeBatchRewardResponse(body, &out)
		})
	})
	return out, err
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

// decodeBatch reads a 2xx batch response to EOF into a pooled buffer and
// hands it to decode.
func decodeBatch(resp *http.Response, path string, decode func(*api.Decoder, []byte) error) error {
	bb := batchBodies.Get().(*batchBody)
	defer func() {
		// Nothing over 1 MiB goes back: one 4,096-job response must not
		// stay pinned behind a stream of 16-job ones.
		if bb.buf.Cap() <= 1<<20 {
			bb.dec.Release()
			batchBodies.Put(bb)
		}
	}()
	bb.buf.Reset()
	if _, err := bb.buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("client: reading %s %s response: %w", http.MethodPost, path, err)
	}
	if err := decode(&bb.dec, bb.buf.Bytes()); err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", http.MethodPost, path, err)
	}
	return nil
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
	err = c.doRaw(ctx, http.MethodPost, api.RouteV2Hints, "text/plain", payload, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(&out)
	})
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
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+api.RouteV2Healthz, nil)
	if err != nil {
		return out, fmt.Errorf("client: GET %s: %w", api.RouteV2Healthz, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, fmt.Errorf("client: GET %s: %w", api.RouteV2Healthz, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 {
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
	err := c.do(ctx, http.MethodGet, api.RouteV2Stats, "", nil, &out)
	return out, err
}

// Quarantine flips one template's safeguard state on the primary
// (POST /v2/quarantine). Action is api.QuarantineActionQuarantine or
// api.QuarantineActionRestore; the response reports the transition the
// server journaled. Followers answer 403 — point this at the primary.
func (c *Client) Quarantine(ctx context.Context, templateHash api.TemplateHash, action string) (api.QuarantineResponse, error) {
	var out api.QuarantineResponse
	err := c.do(ctx, http.MethodPost, api.RouteV2Quarantine, "",
		api.QuarantineRequest{TemplateHash: templateHash, Action: action}, &out)
	return out, err
}

// QuarantineList fetches the templates currently held in a durable
// safeguard state — quarantined or probation (GET /v2/quarantine).
func (c *Client) QuarantineList(ctx context.Context) (api.QuarantineListResponse, error) {
	var out api.QuarantineListResponse
	err := c.do(ctx, http.MethodGet, api.RouteV2Quarantine, "", nil, &out)
	return out, err
}

// getStream issues one GET and hands the 2xx body to the caller, who
// must Close it.
func (c *Client) getStream(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: GET %s: %w", path, err)
	}
	if resp.StatusCode >= 400 {
		apiErr := DecodeError(resp)
		resp.Body.Close()
		return nil, apiErr
	}
	return resp.Body, nil
}

// BootstrapSnapshot streams the primary's replication bootstrap
// snapshot (GET /v2/wal/snapshot): a checkpoint-consistent model whose
// embedded WAL watermark is where a follower starts tailing. The
// caller must Close the returned reader.
func (c *Client) BootstrapSnapshot(ctx context.Context) (io.ReadCloser, error) {
	return c.getStream(ctx, api.RouteV2WALSnapshot)
}

// AuditDecision fetches one event's decision trace
// (GET /v2/audit/decision?event=...).
func (c *Client) AuditDecision(ctx context.Context, eventID string) (api.AuditDecisionResponse, error) {
	var out api.AuditDecisionResponse
	path := api.RouteV2AuditDecision + "?event=" + url.QueryEscape(eventID)
	err := c.do(ctx, http.MethodGet, path, "", nil, &out)
	return out, err
}

// AuditTemplate fetches a template's steering history
// (GET /v2/audit/template?template=...).
func (c *Client) AuditTemplate(ctx context.Context, hash api.TemplateHash) (api.AuditTemplateResponse, error) {
	var out api.AuditTemplateResponse
	path := api.RouteV2AuditTemplate + "?template=" + hash.String()
	err := c.do(ctx, http.MethodGet, path, "", nil, &out)
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
	err := c.do(ctx, http.MethodGet, path, "", nil, &out)
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
	err := c.do(ctx, http.MethodGet, path, "", nil, &out)
	return out, err
}

// Incidents lists the node's diagnostic capture bundles, newest first
// (GET /v2/incidents). A node without -incident-dir answers an empty
// list with Enabled false.
func (c *Client) Incidents(ctx context.Context) (api.IncidentsResponse, error) {
	var out api.IncidentsResponse
	err := c.do(ctx, http.MethodGet, api.RouteV2Incidents, "", nil, &out)
	return out, err
}

// TriggerIncident captures a diagnostic bundle now (POST /v2/incidents),
// bypassing the capture cooldown. Nodes without -incident-dir answer
// incidents_disabled.
func (c *Client) TriggerIncident(ctx context.Context) (api.IncidentResponse, error) {
	var out api.IncidentResponse
	err := c.do(ctx, http.MethodPost, api.RouteV2Incidents, "", nil, &out)
	return out, err
}

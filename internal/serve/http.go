package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/par"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/walrec"
)

// Request body caps: batches scale with the job population; hint files
// scale with the template population but stay far below their cap.
const (
	maxBatchBody = 8 << 20  // 8 MiB: JSON bodies
	maxHintBody  = 64 << 20 // 64 MiB: hint rollover files
)

// httpLayer is the server's HTTP face: the mux plus the middleware
// state (request-ID source, per-route metrics).
type httpLayer struct {
	srv *Server
	mux *http.ServeMux

	// reqNonce spreads request IDs across server instances; reqSeq
	// orders them within one.
	reqNonce uint64
	reqSeq   atomic.Uint64

	stats map[string]*routeStats
}

// routeStats aggregates one route's middleware counters and its
// latency histogram (the source of the /v2/stats count, total and
// percentile fields and of the qoserved_http_requests_total and
// qoserved_http_request_duration_seconds series).
type routeStats struct {
	errors    atomic.Int64
	status5xx atomic.Int64
	maxMicros atomic.Int64
	lat       obs.Histogram
}

func newHTTPLayer(s *Server) *httpLayer {
	h := &httpLayer{
		srv:      s,
		mux:      http.NewServeMux(),
		reqNonce: bandit.Mix64(uint64(time.Now().UnixNano())),
		stats:    make(map[string]*routeStats),
	}
	for _, route := range []struct {
		path    string
		handler http.HandlerFunc
	}{
		{api.RouteV2Rank, h.handleRank},
		{api.RouteV2Reward, h.handleReward},
		{api.RouteV2Hints, h.handleHints},
		{api.RouteV2Snapshot, h.handleSnapshot},
		{api.RouteV2Healthz, h.handleHealthz},
		{api.RouteV2Stats, h.handleStats},
		{api.RouteV2Quarantine, h.handleQuarantine},
		{api.RouteV2WAL, h.handleWALStream},
		{api.RouteV2WALSnapshot, h.handleWALSnapshot},
		{api.RouteV2AuditRecords, h.handleAuditRecords},
		{api.RouteV2AuditDecision, h.handleAuditDecision},
		{api.RouteV2AuditTemplate, h.handleAuditTemplate},
		{api.RouteV2AuditAsOf, h.handleAuditAsOf},
		{api.RouteV2Traces, h.handleTraces},
		{api.RouteV2Incidents, h.handleIncidents},
		{api.RouteV2Version, h.handleVersion},
		{api.RouteMetrics, h.handleMetrics},
	} {
		h.stats[route.path] = &routeStats{}
		h.mux.HandleFunc(route.path, h.instrument(route.path, route.handler))
	}
	// /v2/incidents/{id} shares the list route's handler and metrics
	// label; the handler dispatches on the path suffix.
	h.mux.HandleFunc(api.RouteV2Incidents+"/", h.instrument(api.RouteV2Incidents, h.handleIncidents))
	// Unmatched paths must still speak the protocol: an envelope with a
	// request ID, not the mux's plain-text 404 (which a typed client
	// would misread as a server fault).
	h.stats[routeUnmatched] = &routeStats{}
	h.mux.HandleFunc("/", h.instrument(routeUnmatched, h.handleNotFound))
	return h
}

// routeUnmatched is the metrics label for requests no route claimed.
const routeUnmatched = "(unmatched)"

func (h *httpLayer) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, requestID(w), api.Errorf(api.CodeNotFound, "no route %s", r.URL.Path))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.http.mux.ServeHTTP(w, r) }

// --- middleware: request IDs + per-route metrics ---

// requestState is everything the middleware keeps per request, in one
// allocation: it is the status-recording ResponseWriter the handler
// writes through, and it carries the correlation ID and the span buffer,
// which handlers read back off the writer they were handed — tracing
// and request IDs add no context node and no request copy to the fast
// path.
//
// The forwarding contract: wrapping an http.ResponseWriter hides every
// optional interface the underlying writer implements, because type
// assertions see only requestState's method set. Each optional
// interface a handler or the net/http internals probe for must be
// re-implemented here as a forwarding method — currently http.Flusher
// (the WAL replication stream flushes frames through the middleware)
// and io.ReaderFrom (ServeContent/io.Copy use it for sendfile-grade
// body copies; without the forward, wrapping silently degrades them to
// buffered copies). Add a forward here when a handler starts relying
// on another one (http.Hijacker, http.Pusher, ...).
type requestState struct {
	http.ResponseWriter
	status int
	// id is the correlation ID; the one-element array is the response
	// header's value slice, so echoing the ID costs no allocation.
	// contentLength is the Content-Length value slice the same way. A
	// header map can outlive the request (httptest.ResponseRecorder
	// keeps it), so a requestState is never pooled.
	id            [1]string
	contentLength [1]string
	tr            *obs.Trace
}

// requestID returns the request's correlation ID, assigned or
// propagated by the instrument middleware, given the writer the
// middleware handed the handler.
func requestID(w http.ResponseWriter) string {
	if rs, ok := w.(*requestState); ok {
		return rs.id[0]
	}
	return ""
}

// traceFrom returns the request's span buffer (nil only off the
// instrument middleware; obs.Trace methods are nil-safe).
func traceFrom(w http.ResponseWriter) *obs.Trace {
	if rs, ok := w.(*requestState); ok {
		return rs.tr
	}
	return nil
}

// newRequestID is "%08x-%08x" of the instance nonce and the sequence.
func (h *httpLayer) newRequestID() string {
	var b [8 + 1 + 16]byte
	id := api.AppendHex(b[:0], uint64(uint32(h.reqNonce)), 8)
	id = append(id, '-')
	return string(api.AppendHex(id, h.reqSeq.Add(1), 8))
}

func (rs *requestState) WriteHeader(code int) {
	rs.status = code
	rs.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers (the
// WAL replication stream) can push frames through the middleware.
func (rs *requestState) Flush() {
	if f, ok := rs.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards to the underlying writer's io.ReaderFrom (the
// sendfile path) when it has one, falling back to a plain copy.
func (rs *requestState) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := rs.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(rs.ResponseWriter, src)
}

// instrument wraps a route handler with request-ID injection (header in,
// header out, on the writer through), latency/error metrics, and
// tracing: an obs.Trace rides the writer for handlers to record stages
// on, and the flight recorder decides retention when the handler
// returns.
func (h *httpLayer) instrument(route string, next http.HandlerFunc) http.HandlerFunc {
	m := h.stats[route]
	return func(w http.ResponseWriter, r *http.Request) {
		rs := &requestState{ResponseWriter: w, status: http.StatusOK, tr: h.srv.flight.Begin()}
		if rs.id[0] = r.Header.Get(api.RequestIDHeader); rs.id[0] == "" {
			rs.id[0] = h.newRequestID()
		}
		w.Header()[api.RequestIDHeader] = rs.id[:]
		rs.tr.SetRequestID(rs.id[0])
		start := time.Now()
		next(rs, r)
		dur := time.Since(start)
		el := dur.Microseconds()

		m.lat.Observe(dur)
		if rs.status >= 400 {
			m.errors.Add(1)
		}
		if rs.status >= 500 {
			// Availability SLO input: 5xx is the server failing, 4xx is
			// the client's problem.
			m.status5xx.Add(1)
		}
		for {
			max := m.maxMicros.Load()
			if el <= max || m.maxMicros.CompareAndSwap(max, el) {
				break
			}
		}
		rs.tr.FinishRequest(route, start, dur, rs.status)
	}
}

// routeMetrics snapshots the middleware counters for /v2/stats.
func (h *httpLayer) routeMetrics() map[string]api.RouteStats {
	out := make(map[string]api.RouteStats, len(h.stats))
	for route, m := range h.stats {
		lat := m.lat.Snapshot()
		out[route] = api.RouteStats{
			Count:       int64(lat.Count),
			Errors:      m.errors.Load(),
			Status5xx:   m.status5xx.Load(),
			TotalMicros: int64(lat.Sum / 1000),
			MaxMicros:   m.maxMicros.Load(),
			P50Micros:   lat.Quantile(0.50).Microseconds(),
			P90Micros:   lat.Quantile(0.90).Microseconds(),
			P99Micros:   lat.Quantile(0.99).Microseconds(),
			P999Micros:  lat.Quantile(0.999).Microseconds(),
			Hist:        histToWire(lat),
		}
	}
	return out
}

// --- encoding helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the structured envelope; the status follows the code.
func writeError(w http.ResponseWriter, rid string, e *api.Error) {
	writeJSON(w, api.StatusForCode(e.Code), api.ErrorResponse{Error: *e, RequestID: rid})
}

// toAPIError coerces any error into the envelope payload: typed errors
// pass through, everything else becomes an internal error.
func toAPIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	return api.Errorf(api.CodeInternal, "%v", err)
}

// decodeBody decodes a JSON body under a size cap, classifying failures
// as body_too_large vs invalid_json.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) *api.Error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return nil
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return api.Errorf(api.CodeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
	}
	return api.Errorf(api.CodeInvalidJSON, "decoding request: %v", err)
}

// requireMethod writes the 405 envelope and returns false when the verb
// does not match.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		writeError(w, requestID(w), api.Errorf(api.CodeMethodNotAllowed, "%s required", method))
		return false
	}
	return true
}

// requirePrimary rejects state-mutating requests on a follower with the
// structured not_primary envelope carrying the leader URL, so clients
// chase the redirect instead of guessing. Returns false when rejected.
func (h *httpLayer) requirePrimary(w http.ResponseWriter, r *http.Request) bool {
	if h.srv.follower {
		writeError(w, requestID(w), api.NotPrimary(h.srv.leaderURL))
		return false
	}
	return true
}

// --- batch cores ---

// rankChunk is how many jobs of a batch one rank worker takes at a time.
// A hint lookup is a fraction of a microsecond, far less than starting a
// goroutine, so only a batch longer than one chunk is worth fanning out.
const rankChunk = 32

// rankBatch ranks a job batch into results[:len(jobs)], fanning chunks
// of it out over the rank worker pool; a batch of one chunk is ranked
// on the caller's goroutine without a pool or a closure. Results align
// index-for-index with jobs; per-job failures land in the item's Error
// field so one malformed job cannot void its neighbors. tr records each
// job's stages on its own trace lane.
func (h *httpLayer) rankBatch(jobs []api.RankRequest, results []api.RankResult, tr *obs.Trace) []api.RankResult {
	results = slices.Grow(results[:0], len(jobs))[:len(jobs)]
	if len(jobs) <= rankChunk {
		h.rankRange(jobs, results, tr, 0, len(jobs))
		return results
	}
	par.For((len(jobs)+rankChunk-1)/rankChunk, func(c int) {
		h.rankRange(jobs, results, tr, c*rankChunk, min((c+1)*rankChunk, len(jobs)))
	})
	return results
}

// rankRange ranks jobs[lo:hi] into results[lo:hi].
func (h *httpLayer) rankRange(jobs []api.RankRequest, results []api.RankResult, tr *obs.Trace, lo, hi int) {
	for i := lo; i < hi; i++ {
		resp, err := h.srv.rankTraced(jobs[i], tr, i)
		results[i] = api.RankResult{RankResponse: resp}
		if err != nil {
			results[i].Error = toAPIError(err)
		}
	}
}

// rewardBatch feeds a telemetry batch to the ingestion queue. Events
// that name no logged rank decision are rejected synchronously
// (unknown_event) rather than silently dropped on the async path; the
// valid remainder is accepted as one batch — journaled before this
// call returns when the server runs with a WAL, so a 202 means the
// telemetry is as durable as the configured sync mode promises — with
// queue saturation rejecting the overflow as queue_full.
//
// An event carrying a templateHash additionally feeds the drift
// safeguard (observed counts those); a template-only event — the
// reward path for hint-served decisions, which log no rank event — is
// observed without being queued. A non-finite reward is rejected
// typed (invalid_reward) before it can reach either the bandit
// weights or the drift sketches, and a drift transition that cannot
// be journaled rejects the event with CodeInternal (fail-stop: the
// hint must not keep serving unsafeguarded while the disk is sick).
//
// st lends the two lists the batch is sorted into: entries, the events
// bound for the learner's queue, and idxs, their positions in the batch.
func (h *httpLayer) rewardBatch(st *batchState, events []api.RewardEvent, tr *obs.Trace) (queued, observed int, rejected []api.RewardRejection) {
	reject := func(i int, e *api.Error) {
		rejected = append(rejected, api.RewardRejection{Index: i, EventID: events[i].EventID, Error: *e})
	}
	entries, idxs := st.entries[:0], st.idxs[:0]
	for i, ev := range events {
		switch {
		case ev.Reward == nil || (ev.EventID == "" && ev.TemplateHash == nil):
			reject(i, api.Errorf(api.CodeInvalidRequest, "reward plus eventId and/or templateHash are required"))
			continue
		case math.IsNaN(*ev.Reward) || math.IsInf(*ev.Reward, 0):
			reject(i, api.Errorf(api.CodeInvalidReward, "reward must be finite, got %v", *ev.Reward))
			continue
		case ev.EventID != "" && !h.srv.bandit.HasEvent(ev.EventID):
			reject(i, api.Errorf(api.CodeUnknownEvent, "unknown event %q", ev.EventID))
			continue
		}
		if ev.TemplateHash != nil {
			if err := h.srv.ObserveReward(uint64(*ev.TemplateHash), *ev.Reward); err != nil {
				reject(i, toAPIError(err))
				continue
			}
			observed++
		}
		if ev.EventID != "" {
			entries = append(entries, walrec.RewardEntry{EventID: ev.EventID, Value: *ev.Reward})
			idxs = append(idxs, i)
		}
	}
	st.entries, st.idxs = entries, idxs
	if len(entries) == 0 {
		return 0, observed, rejected
	}
	accepted, err := h.srv.ingest.enqueueBatch(entries, tr)
	queued = accepted
	for k := accepted; k < len(entries); k++ {
		// A journal failure with nothing accepted means the append
		// itself failed — those events were never queued (internal). Any
		// other shortfall is queue capacity, the retryable condition
		// (including a post-queue Commit failure: the overflow entries
		// were dropped for capacity before the journal was involved, so
		// they must keep the backpressure signal).
		if err != nil && accepted == 0 {
			reject(idxs[k], api.Errorf(api.CodeInternal, "journaling reward: %v", err))
		} else {
			reject(idxs[k], api.Errorf(api.CodeQueueFull, "reward queue full, retry"))
		}
	}
	return queued, observed, rejected
}

// --- the two hot routes ---

// maxPooledBuf caps what goes back into the batch pool: a buffer that one
// oversized request grew past it is left to the collector instead of
// being pinned by every small request that follows.
const maxPooledBuf = 1 << 20

// batchState is what one /v2/rank or /v2/reward request works in: the
// body as read, the decoder with the slices it fills, the rank results,
// the reward entries bound for the ingest queue, the encoded response.
// The handler owns all of it until it returns — ResponseWriter.Write
// copies what it is given — so a state goes back to the pool whole. The
// one thing that outlives the request, an event ID handed to the ingest
// queue, is a string of the decoder's arena for this body
// (api.Decoder): a copy, never a view of body, and never rewritten by
// the next request the state serves, so a queued ID pins the body's
// strings and nothing else.
type batchState struct {
	body    bytes.Buffer
	out     []byte
	dec     api.Decoder
	jobs    []api.RankRequest
	events  []api.RewardEvent
	results []api.RankResult
	entries []walrec.RewardEntry
	idxs    []int
}

// jsonContentType is shared by every JSON response: header value slices
// are read and cloned by net/http, never written.
var jsonContentType = []string{"application/json"}

var batchStates = sync.Pool{New: func() any { return new(batchState) }}

// release drops what the request's values reference, and any buffer over
// the cap, before the state goes back to the pool.
func (st *batchState) release() {
	clear(st.jobs)
	clear(st.events)
	clear(st.results)
	clear(st.entries)
	if st.body.Cap() > maxPooledBuf {
		st.body = bytes.Buffer{}
	}
	if cap(st.out) > maxPooledBuf {
		st.out = nil
	}
	if cap(st.jobs) > api.MaxRankBatch {
		st.jobs = nil
	}
	if cap(st.events) > api.MaxRewardBatch {
		st.events, st.entries, st.idxs = nil, nil, nil
	}
	st.dec.Release()
	batchStates.Put(st)
}

// readBody reads the request body into st.body under the batch cap.
// capped reports that the cap cut it short, with the bytes under the cap
// kept: like the json.Decoder this replaces, the handler still accepts
// such a body when its first value ends before the cut. A body whose
// declared length is within the cap needs no MaxBytesReader: net/http
// reads no further than Content-Length. A body read to EOF is closed,
// so that net/http does not set up a discard of its rest after the
// handler returns.
func (st *batchState) readBody(w http.ResponseWriter, r *http.Request) (capped bool, err error) {
	st.body.Reset()
	body := r.Body
	if r.ContentLength < 0 || r.ContentLength > maxBatchBody {
		body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	}
	if _, err := st.body.ReadFrom(body); err != nil {
		var mbe *http.MaxBytesError
		if !errors.As(err, &mbe) {
			return false, err
		}
		// A client that sent more than the cap is not handed another
		// request on its connection. (net/http would reuse it after
		// discarding a small unread rest; the middleware's writer hides
		// the close MaxBytesReader asks an unwrapped writer for.)
		w.Header().Set("Connection", "close")
		return true, err
	}
	r.Body.Close()
	return false, nil
}

// bodyError classifies a failed read or decode as body_too_large vs
// invalid_json: the cap is to blame only when the decoder ran out of
// input at the cut.
func bodyError(err error, capped bool) *api.Error {
	if capped && errors.Is(err, io.ErrUnexpectedEOF) {
		return api.Errorf(api.CodeBodyTooLarge, "request body exceeds %d bytes", maxBatchBody)
	}
	return api.Errorf(api.CodeInvalidJSON, "decoding request: %v", err)
}

// respond writes the response encoded in st.out, ending it with the
// newline json.Encoder would. w is the instrument middleware's
// *requestState, which holds the Content-Length value.
func (st *batchState) respond(w http.ResponseWriter, status int) {
	st.out = append(st.out, '\n')
	w.Header()["Content-Type"] = jsonContentType
	rs := w.(*requestState)
	rs.contentLength[0] = strconv.Itoa(len(st.out))
	w.Header()["Content-Length"] = rs.contentLength[:]
	w.WriteHeader(status)
	w.Write(st.out)
}

func (h *httpLayer) handleRank(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	st := batchStates.Get().(*batchState)
	defer st.release()
	capped, err := st.readBody(w, r)
	req := api.BatchRankRequest{Jobs: st.jobs[:0]}
	if err == nil || capped {
		err = st.dec.DecodeBatchRankRequest(st.body.Bytes(), &req)
	}
	if err != nil {
		writeError(w, rid, bodyError(err, capped))
		return
	}
	switch n := len(req.Jobs); {
	case n == 0:
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "empty jobs batch"))
		return
	case n > api.MaxRankBatch:
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest,
			"batch of %d jobs exceeds limit %d", n, api.MaxRankBatch))
		return
	}
	st.jobs = req.Jobs
	st.results = h.rankBatch(req.Jobs, st.results, traceFrom(w))
	st.out, err = api.BatchRankResponse{
		RequestID:  rid,
		Generation: h.srv.cache.Generation(),
		Results:    st.results,
	}.AppendJSON(st.out[:0])
	if err != nil {
		writeError(w, rid, api.Errorf(api.CodeInternal, "encoding response: %v", err))
		return
	}
	st.respond(w, http.StatusOK)
}

func (h *httpLayer) handleReward(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodPost) || !h.requirePrimary(w, r) {
		return
	}
	st := batchStates.Get().(*batchState)
	defer st.release()
	capped, err := st.readBody(w, r)
	req := api.BatchRewardRequest{Events: st.events[:0]}
	if err == nil || capped {
		err = st.dec.DecodeBatchRewardRequest(st.body.Bytes(), &req)
	}
	if err != nil {
		writeError(w, rid, bodyError(err, capped))
		return
	}
	switch n := len(req.Events); {
	case n == 0:
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "empty events batch"))
		return
	case n > api.MaxRewardBatch:
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest,
			"batch of %d events exceeds limit %d", n, api.MaxRewardBatch))
		return
	}
	st.events = req.Events
	queued, observed, rejected := h.rewardBatch(st, req.Events, traceFrom(w))
	// Nothing accepted at all and a systemic failure was among the
	// reasons: surface it as the whole-batch status so clients react to
	// the condition instead of parsing rejections. queue_full → 503
	// (back off and retry; safe — no event was accepted, and any
	// malformed/unknown stragglers re-reject deterministically).
	// internal (journal fail-stop, including an unjournalable drift
	// transition) → 500. Partial acceptance stays 202 with per-event
	// rejections.
	if queued == 0 && observed == 0 {
		for _, rej := range rejected {
			if rej.Error.Code == api.CodeQueueFull {
				writeError(w, rid, api.Errorf(api.CodeQueueFull, "reward queue full, retry"))
				return
			}
		}
		for _, rej := range rejected {
			if rej.Error.Code == api.CodeInternal {
				e := rej.Error
				writeError(w, rid, &e)
				return
			}
		}
	}
	st.out, _ = api.BatchRewardResponse{
		RequestID:  rid,
		Generation: h.srv.cache.Generation(),
		Queued:     queued,
		Observed:   observed,
		Rejected:   rejected,
	}.AppendJSON(st.out[:0])
	st.respond(w, http.StatusAccepted)
}

// --- the cold routes ---

func (h *httpLayer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := h.srv.Health()
	resp.RequestID = requestID(w)
	status := http.StatusOK
	if resp.Status != api.HealthOK {
		// Degraded (stale follower): the body still describes the node,
		// but the status code is what LB health checks act on.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (h *httpLayer) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	resp := h.srv.Stats()
	resp.RequestID = requestID(w)
	writeJSON(w, http.StatusOK, resp)
}

// maxTraceMs is the largest /v2/traces min_ms a time.Duration holds.
const maxTraceMs = float64(math.MaxInt64 / int64(time.Millisecond))

// handleTraces serves the retained slow-trace ring as a Chrome-trace
// document: GET /v2/traces?route=&min_ms=&limit=. The body's
// traceEvents key loads directly in chrome://tracing / Perfetto.
func (h *httpLayer) handleTraces(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		// !(ms >= 0) also refuses NaN; past maxTraceMs the conversion
		// to a Duration would overflow (Inf included).
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms >= 0) || ms > maxTraceMs {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "min_ms must be a number in [0, %.0f], got %q", maxTraceMs, v))
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "limit must be a non-negative integer, got %q", v))
			return
		}
		limit = n
	}
	resp := h.srv.tracesResponse(q.Get("route"), minDur, limit)
	resp.RequestID = rid
	writeJSON(w, http.StatusOK, resp)
}

// handleIncidents is the flight recorder's capture surface:
// GET /v2/incidents lists bundles, GET /v2/incidents/{id} fetches one
// bundle's metadata, GET /v2/incidents/{id}?file={name} streams an
// artifact, and POST /v2/incidents captures a manual bundle (bypassing
// the cooldown — the operator is asking for evidence now).
func (h *httpLayer) handleIncidents(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	eng := h.srv.incidents
	id := strings.Trim(strings.TrimPrefix(r.URL.Path, api.RouteV2Incidents), "/")
	switch r.Method {
	case http.MethodGet:
		if eng == nil {
			if id != "" {
				writeError(w, rid, api.Errorf(api.CodeIncidentsDisabled, "incident capture is disabled (no -incident-dir)"))
				return
			}
			writeJSON(w, http.StatusOK, api.IncidentsResponse{Incidents: []api.IncidentMeta{}, RequestID: rid})
			return
		}
		if id == "" {
			writeJSON(w, http.StatusOK, api.IncidentsResponse{
				Enabled: true, Incidents: eng.list(), RequestID: rid,
			})
			return
		}
		if name := r.URL.Query().Get("file"); name != "" {
			f, err := eng.file(id, name)
			if err != nil {
				writeError(w, rid, toAPIError(err))
				return
			}
			defer f.Close()
			w.Header().Set("Content-Type", "application/octet-stream")
			io.Copy(w, f)
			return
		}
		meta, err := eng.get(id)
		if err != nil {
			writeError(w, rid, toAPIError(err))
			return
		}
		writeJSON(w, http.StatusOK, api.IncidentResponse{Incident: meta, RequestID: rid})
	case http.MethodPost:
		if eng == nil {
			writeError(w, rid, api.Errorf(api.CodeIncidentsDisabled, "incident capture is disabled (no -incident-dir)"))
			return
		}
		if id != "" {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "POST %s to capture; bundle paths are read-only", api.RouteV2Incidents))
			return
		}
		meta, err := eng.fire(time.Now(), incidentManual, "operator capture via POST "+api.RouteV2Incidents, 0, true)
		if err != nil {
			writeError(w, rid, toAPIError(err))
			return
		}
		writeJSON(w, http.StatusOK, api.IncidentResponse{Incident: meta, RequestID: rid})
	default:
		writeError(w, rid, api.Errorf(api.CodeMethodNotAllowed, "GET or POST required"))
	}
}

// driftStatsTemplates caps the per-template drift listing in /v2/stats
// (non-healthy templates always appear; the rest are the worst-scoring
// tracked ones up to this many total).
const driftStatsTemplates = 32

// handleQuarantine is the drift-safeguard admin surface: GET lists the
// durable quarantine table (served on any node — a follower's answer
// reflects the replicated state), POST applies a manual quarantine or
// restore on the primary, journaled exactly like a detector
// transition.
func (h *httpLayer) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	switch r.Method {
	case http.MethodGet:
		resp := api.QuarantineListResponse{RequestID: rid, Templates: []api.QuarantineEntry{}}
		for _, t := range h.srv.DriftStats(0).Templates {
			if t.State == drift.StateQuarantined.String() || t.State == drift.StateProbation.String() {
				resp.Templates = append(resp.Templates, api.QuarantineEntry{
					TemplateHash: t.TemplateHash, State: t.State,
				})
			}
		}
		writeJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		if !h.requirePrimary(w, r) {
			return
		}
		var req api.QuarantineRequest
		if e := decodeBody(w, r, maxBatchBody, &req); e != nil {
			writeError(w, rid, e)
			return
		}
		var quarantine bool
		switch req.Action {
		case api.QuarantineActionQuarantine:
			quarantine = true
		case api.QuarantineActionRestore:
			quarantine = false
		default:
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest,
				"action must be %q or %q", api.QuarantineActionQuarantine, api.QuarantineActionRestore))
			return
		}
		tr, err := h.srv.Quarantine(uint64(req.TemplateHash), quarantine)
		if err != nil {
			writeError(w, rid, toAPIError(err))
			return
		}
		writeJSON(w, http.StatusOK, api.QuarantineResponse{
			RequestID:    rid,
			TemplateHash: req.TemplateHash,
			From:         tr.From.String(),
			To:           tr.To.String(),
		})
	default:
		writeError(w, rid, api.Errorf(api.CodeMethodNotAllowed, "GET or POST required"))
	}
}

// handleHints installs a hint table from a SIS exchange-format body —
// the HTTP face of the pipeline rollover.
func (h *httpLayer) handleHints(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodPost) || !h.requirePrimary(w, r) {
		return
	}
	// Read the whole body before parsing: sis.Parse runs on a
	// line scanner, so a MaxBytesReader truncation would otherwise
	// surface as a bogus mid-line parse error — or, cut exactly on a
	// line boundary, install a silently truncated table.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxHintBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, rid, api.Errorf(api.CodeBodyTooLarge, "hint file exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "reading hint file: %v", err))
		return
	}
	file, err := sis.Parse(bytes.NewReader(body))
	if err != nil {
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "%v", err))
		return
	}
	gen, err := h.srv.InstallHints(file.Hints)
	if err != nil {
		// Typed errors (journal fail-stop = internal) pass through; plain
		// errors are the SIS validation gate.
		var ae *api.Error
		if errors.As(err, &ae) {
			writeError(w, rid, ae)
		} else {
			writeError(w, rid, api.Errorf(api.CodeValidationFailed, "%v", err))
		}
		return
	}
	writeJSON(w, http.StatusOK, api.HintsInstallResponse{
		Installed:  len(file.Hints),
		Day:        file.Day,
		Generation: gen,
	})
}

// handleSnapshot serves the model state: GET streams the persisted form,
// POST writes it to the configured snapshot path for restart recovery.
//
// On a journaled primary a GET is a recovery seed: it serves the
// follower bootstrap's snapshot (GET /v2/wal/snapshot), whose wal=
// watermark covers everything in it, so Recover(journal, body) rebuilds
// the live model. The cost is that bootstrap's checkpoint barrier:
// reward intake fenced, the queue drained, a train mark journaled, the
// hint and quarantine tables re-journaled. A plain Save would stamp the
// current weights with the last checkpoint's watermark, and replay would
// apply the journal suffix to them a second time. Followers and WAL-less
// nodes have no journal to replay and stream Save.
func (h *httpLayer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	switch r.Method {
	case http.MethodGet:
		if h.srv.wal != nil {
			h.handleWALSnapshot(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := h.srv.SnapshotTo(w); err != nil {
			// Headers are gone; the truncated body will fail bandit.Load.
			return
		}
	case http.MethodPost:
		if !h.requirePrimary(w, r) {
			return
		}
		if h.srv.snapshotPath == "" {
			writeError(w, rid, api.Errorf(api.CodeSnapshotUnconfigured, "no snapshot path configured"))
			return
		}
		info, err := h.srv.Checkpoint(h.srv.snapshotPath)
		if err != nil {
			writeError(w, rid, api.Errorf(api.CodeInternal, "snapshot failed: %v", err))
			return
		}
		writeJSON(w, http.StatusOK, api.SnapshotSaveResponse{Path: h.srv.snapshotPath, Bytes: info.Bytes})
	default:
		writeError(w, rid, api.Errorf(api.CodeMethodNotAllowed, "GET or POST required"))
	}
}

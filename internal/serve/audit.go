package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// The /v2/audit surface is the online face of the journal-audit
// engine: read-only queries over the server's own WAL directory. The
// engine holds nothing but its counters; it opens on the first audit
// request, and the audit stats block, metric families and audit_query
// stage appear with it.

// auditLimitDefault/auditLimitMax bound the /v2/audit/records listing.
const (
	auditLimitDefault = 100
	auditLimitMax     = 1000
)

// auditEngine returns the lazily opened audit engine, or the typed
// wal_disabled error on a server that runs without a journal.
func (s *Server) auditEngine() (*audit.Engine, error) {
	if s.wal == nil {
		return nil, api.Errorf(api.CodeWALDisabled, "this server runs without a WAL; nothing to audit")
	}
	if s.auditEng.Load() == nil {
		eng, err := audit.Open(s.wal.Dir())
		if err != nil {
			return nil, err
		}
		// Two first requests may race here; either's engine will do.
		s.auditEng.CompareAndSwap(nil, eng)
	}
	return s.auditEng.Load(), nil
}

// auditStats snapshots the engine's counters for /v2/stats.
func (s *Server) auditStats() *api.AuditStats {
	eng := s.auditEng.Load()
	if eng == nil {
		return nil
	}
	t := eng.Totals()
	return &t
}

// auditPrep resolves the engine and makes the journal's current state
// visible to it: a Sync flushes buffered frames so file reads see
// every acknowledged record.
func (h *httpLayer) auditPrep(w http.ResponseWriter, rid string) (*audit.Engine, bool) {
	eng, err := h.srv.auditEngine()
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return nil, false
	}
	if err := h.srv.wal.Sync(); err != nil {
		writeError(w, rid, api.Errorf(api.CodeInternal, "syncing journal: %v", err))
		return nil, false
	}
	return eng, true
}

// parseLSNParam parses an optional uint64 query parameter.
func parseLSNParam(r *http.Request, name string) (uint64, *api.Error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(q, 10, 64)
	if err != nil {
		return 0, api.Errorf(api.CodeInvalidRequest, "bad %s %q", name, q)
	}
	return v, nil
}

// handleAuditRecords lists journal records matching the filter
// parameters: type (comma-separated registry names), event, template
// (64-bit hex), fromLsn/toLsn, limit.
func (h *httpLayer) handleAuditRecords(w http.ResponseWriter, r *http.Request) {
	defer func(start time.Time) { h.srv.auditLat.Observe(time.Since(start)) }(time.Now())
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	eng, ok := h.auditPrep(w, rid)
	if !ok {
		return
	}
	var q audit.Query
	if names := r.URL.Query().Get("type"); names != "" {
		for _, name := range strings.Split(names, ",") {
			tag, err := walrec.ParseTag(strings.TrimSpace(name))
			if err != nil {
				writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "%v", err))
				return
			}
			q.Tags = append(q.Tags, tag)
		}
	}
	q.EventID = r.URL.Query().Get("event")
	if t := r.URL.Query().Get("template"); t != "" {
		v, err := strconv.ParseUint(t, 16, 64)
		if err != nil {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "bad template %q: want 64-bit hex", t))
			return
		}
		q.Template, q.HasTemplate = v, true
	}
	var e *api.Error
	if q.FromLSN, e = parseLSNParam(r, "fromLsn"); e != nil {
		writeError(w, rid, e)
		return
	}
	if q.ToLSN, e = parseLSNParam(r, "toLsn"); e != nil {
		writeError(w, rid, e)
		return
	}
	q.Limit = auditLimitDefault
	if l := r.URL.Query().Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "bad limit %q", l))
			return
		}
		q.Limit = min(n, auditLimitMax)
	}

	resp := api.AuditRecordsResponse{RequestID: rid, Records: []api.AuditRecord{}}
	scan, err := eng.Run(q, func(res audit.Result) error {
		resp.Records = append(resp.Records, res.Row())
		return nil
	})
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	resp.Limited = len(resp.Records) == q.Limit
	resp.Scan = scan
	writeJSON(w, http.StatusOK, resp)
}

// handleAuditDecision reconstructs one event's decision trace
// (GET /v2/audit/decision?event=...).
func (h *httpLayer) handleAuditDecision(w http.ResponseWriter, r *http.Request) {
	defer func(start time.Time) { h.srv.auditLat.Observe(time.Since(start)) }(time.Now())
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	eventID := r.URL.Query().Get("event")
	if eventID == "" {
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "event parameter required"))
		return
	}
	eng, ok := h.auditPrep(w, rid)
	if !ok {
		return
	}
	resp, err := eng.Trace(eventID)
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	resp.RequestID = rid
	writeJSON(w, http.StatusOK, resp)
}

// handleAuditTemplate returns a template's steering history
// (GET /v2/audit/template?template=<hex>).
func (h *httpLayer) handleAuditTemplate(w http.ResponseWriter, r *http.Request) {
	defer func(start time.Time) { h.srv.auditLat.Observe(time.Since(start)) }(time.Now())
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	t := r.URL.Query().Get("template")
	if t == "" {
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "template parameter required"))
		return
	}
	hash, err := strconv.ParseUint(t, 16, 64)
	if err != nil {
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "bad template %q: want 64-bit hex", t))
		return
	}
	eng, ok := h.auditPrep(w, rid)
	if !ok {
		return
	}
	resp, err := eng.Template(hash)
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	resp.RequestID = rid
	writeJSON(w, http.StatusOK, resp)
}

// handleAuditAsOf reconstructs the model as of an LSN and summarizes
// the result (GET /v2/audit/asof?lsn=...; lsn 0 or absent targets the
// durable frontier). The reconstruction replays the journal with the
// server's own recovery parameters, so for an LSN a checkpoint was
// taken at, the digest matches that checkpoint file's.
func (h *httpLayer) handleAuditAsOf(w http.ResponseWriter, r *http.Request) {
	defer func(start time.Time) { h.srv.auditLat.Observe(time.Since(start)) }(time.Now())
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	lsn, e := parseLSNParam(r, "lsn")
	if e != nil {
		writeError(w, rid, e)
		return
	}
	eng, ok := h.auditPrep(w, rid)
	if !ok {
		return
	}
	if lsn == 0 {
		lsn = h.srv.wal.SyncedLSN()
	}
	resp, _, err := AuditAsOf(wal.DirSource{Dir: h.srv.wal.Dir()}, h.srv.snapshotPath, lsn)
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	eng.Count(resp.Scan)
	resp.RequestID = rid
	writeJSON(w, http.StatusOK, resp)
}

// AuditAsOf reconstructs the model as of lsn (RecoverAsOf) and returns
// its summary and its bytes in the snapshot file format — the one
// as-of answer of /v2/audit/asof and `qoserved audit asof`. Counting
// the pass against an engine's totals is the caller's.
func AuditAsOf(src wal.Source, snapshotPath string, lsn uint64) (api.AuditAsOfResponse, []byte, error) {
	res, err := RecoverAsOf(src, snapshotPath, lsn)
	if err != nil {
		return api.AuditAsOfResponse{}, nil, err
	}
	var snap bytes.Buffer
	if err := res.Service.Save(&snap); err != nil {
		return api.AuditAsOfResponse{}, nil, err
	}
	sum := sha256.Sum256(snap.Bytes())
	r := res.Replay
	return api.AuditAsOfResponse{
		LSN:            lsn,
		SnapshotBytes:  snap.Len(),
		SnapshotSHA256: hex.EncodeToString(sum[:]),
		SnapshotSeeded: res.SnapshotLoaded,
		FromLSN:        res.FromLSN,
		Replay: api.AuditReplayStats{
			Records: r.Records, Ranks: r.Ranks, Rewards: r.Rewards,
			TrainMarks: r.TrainMarks, TrainRuns: r.TrainRuns, TrainedEvents: r.TrainedEvents,
		},
		HintGen:     res.HintGen,
		Hints:       len(res.Hints),
		Quarantined: len(res.Quarantine),
		Scan:        audit.ScanOf(res.Journal, r.Records),
	}, snap.Bytes(), nil
}

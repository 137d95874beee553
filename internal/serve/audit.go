package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strconv"
	"strings"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/walrec"
)

// The /v2/audit surface is the online face of the journal-audit
// engine: read-only queries over the server's own WAL directory. The
// engine opens lazily on the first audit request (or at the first
// checkpoint, which prebuilds index sidecars for sealed segments) and
// shares its sidecar cache across requests.

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
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	if s.auditEng == nil {
		eng, err := audit.Open(s.wal.Dir())
		if err != nil {
			return nil, err
		}
		s.auditEng = eng
	}
	return s.auditEng, nil
}

// openAuditEngine returns the audit engine if a query or checkpoint has
// opened it, nil before — the audit stats block, metric families and
// audit_query stage all appear only once it exists.
func (s *Server) openAuditEngine() *audit.Engine {
	s.auditMu.Lock()
	defer s.auditMu.Unlock()
	return s.auditEng
}

// auditStats snapshots the engine's counters for /v2/stats.
func (s *Server) auditStats() *api.AuditStats {
	eng := s.openAuditEngine()
	if eng == nil {
		return nil
	}
	t := eng.Totals()
	return &api.AuditStats{
		Queries:         t.Queries,
		SegmentsScanned: t.SegmentsScanned,
		SegmentsSkipped: t.SegmentsSkipped,
		RecordsScanned:  t.RecordsScanned,
		SidecarsBuilt:   t.SidecarsBuilt,
		SidecarsLoaded:  t.SidecarsLoaded,
		SidecarsRebuilt: t.SidecarsRebuilt,
	}
}

// collectAuditMetrics contributes the qoserved_audit_* families to
// /metrics once the engine exists.
func (s *Server) collectAuditMetrics(e *obs.Exposition) {
	eng := s.openAuditEngine()
	if eng == nil {
		return
	}
	t := eng.Totals()
	e.Counter("qoserved_audit_queries_total", "Audit queries served.", nil, float64(t.Queries))
	e.Counter("qoserved_audit_segments_scanned_total", "Journal segments scanned by audit queries.", nil, float64(t.SegmentsScanned))
	e.Counter("qoserved_audit_segments_skipped_total", "Journal segments pruned by audit query planning.", nil, float64(t.SegmentsSkipped))
	e.Counter("qoserved_audit_records_scanned_total", "Journal records scanned by audit queries.", nil, float64(t.RecordsScanned))
	e.Counter("qoserved_audit_records_matched_total", "Journal records matched by audit queries.", nil, float64(t.RecordsMatched))
	e.Counter("qoserved_audit_sidecars_built_total", "Index sidecars built from segment scans.", nil, float64(t.SidecarsBuilt))
	e.Counter("qoserved_audit_sidecars_loaded_total", "Index sidecars loaded from disk.", nil, float64(t.SidecarsLoaded))
	e.Counter("qoserved_audit_sidecars_rebuilt_total", "Index sidecars rejected by validation and rebuilt.", nil, float64(t.SidecarsRebuilt))
}

// buildAuditSidecars is the checkpoint hook: prebuild index sidecars
// for sealed segments so the first audit query after a checkpoint does
// not pay the indexing scan. Best-effort — sidecars are derived data.
func (s *Server) buildAuditSidecars() {
	eng, err := s.auditEngine()
	if err != nil {
		return
	}
	eng.BuildSidecars()
}

// auditScanStats converts engine counters to the wire form.
func auditScanStats(st audit.ScanStats) api.AuditScanStats {
	return api.AuditScanStats{
		SegmentsTotal:   st.SegmentsTotal,
		SegmentsScanned: st.SegmentsScanned,
		SegmentsSkipped: st.SegmentsSkipped,
		SkippedByLSN:    st.SkippedByLSN,
		SkippedByTime:   st.SkippedByTime,
		SkippedByTag:    st.SkippedByTag,
		SkippedByKey:    st.SkippedByKey,
		RecordsScanned:  st.RecordsScanned,
		RecordsMatched:  st.RecordsMatched,
		Truncated:       st.Truncated,
	}
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

	it, err := eng.Run(q)
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	defer it.Close()
	resp := api.AuditRecordsResponse{RequestID: rid, Records: []api.AuditRecord{}}
	for {
		res, ok, err := it.Next()
		if err != nil {
			writeError(w, rid, toAPIError(err))
			return
		}
		if !ok {
			break
		}
		rec := api.AuditRecord{
			LSN:     res.LSN,
			Type:    walrec.Name(res.Rec.Tag),
			Summary: audit.Summary(res),
		}
		if res.Rec.Rank != nil {
			rec.EventID = res.Rec.Rank.EventID
		}
		resp.Records = append(resp.Records, rec)
	}
	resp.Limited = len(resp.Records) == q.Limit
	resp.Scan = auditScanStats(it.Stats())
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
	tr, err := eng.Trace(eventID)
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	resp := api.AuditDecisionResponse{
		EventID:          eventID,
		Found:            tr.Rank != nil,
		TrainedAtLSN:     tr.TrainedAtLSN,
		LineageTruncated: tr.LineageTruncated,
		Scan:             auditScanStats(tr.Scan),
		RequestID:        rid,
	}
	if tr.Rank != nil {
		resp.RankLSN = tr.RankLSN
		resp.Prob = tr.Rank.Prob
		resp.CtxIDs = len(tr.Rank.CtxIDs)
		resp.ActIDs = len(tr.Rank.ActIDs)
	}
	for _, rw := range tr.Rewards {
		resp.Rewards = append(resp.Rewards, api.AuditRewardRef{LSN: rw.LSN, Value: rw.Value})
	}
	for _, lr := range tr.Lineage {
		resp.Lineage = append(resp.Lineage, api.AuditRewardRef{LSN: lr.LSN, Value: lr.Value, EventID: lr.EventID})
	}
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
	th, terr := eng.Template(hash)
	if terr != nil {
		writeError(w, rid, toAPIError(terr))
		return
	}
	resp := api.AuditTemplateResponse{
		TemplateHash:      api.TemplateHash(hash),
		Events:            []api.AuditTemplateEvent{},
		Rollovers:         th.Rollovers,
		QuarantineRecords: th.QuarantineRecords,
		Scan:              auditScanStats(th.Scan),
		RequestID:         rid,
	}
	for _, ev := range th.Events {
		out := api.AuditTemplateEvent{
			LSN:      ev.LSN,
			Kind:     ev.Kind,
			Flip:     ev.Flip,
			Day:      ev.Day,
			Gen:      ev.Gen,
			Snapshot: ev.Snapshot,
		}
		if ev.Kind == "quarantine" {
			out.State = drift.State(ev.State).String()
		}
		resp.Events = append(resp.Events, out)
	}
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
	res, err := eng.AsOf(lsn, h.srv.auditOpts)
	if err != nil {
		writeError(w, rid, toAPIError(err))
		return
	}
	// Time travel only works over retained history: if compaction
	// removed records inside the replay window, the reconstruction
	// would silently miss them — reject instead.
	if first, _ := h.srv.wal.Window(); lsn > res.FromLSN && first > res.FromLSN+1 {
		writeError(w, rid, api.Errorf(api.CodeInvalidRequest,
			"journal history before LSN %d is compacted; reconstruction at %d needs records from %d",
			first, lsn, res.FromLSN+1))
		return
	}
	sum := sha256.Sum256(res.Snapshot)
	writeJSON(w, http.StatusOK, api.AuditAsOfResponse{
		LSN:            res.LSN,
		SnapshotBytes:  len(res.Snapshot),
		SnapshotSHA256: hex.EncodeToString(sum[:]),
		SnapshotSeeded: res.SnapshotSeeded,
		FromLSN:        res.FromLSN,
		Replay: api.AuditReplayStats{
			Records:       res.Replay.Records,
			Ranks:         res.Replay.Ranks,
			Rewards:       res.Replay.Rewards,
			TrainMarks:    res.Replay.TrainMarks,
			TrainRuns:     res.Replay.TrainRuns,
			TrainedEvents: res.Replay.TrainedEvents,
		},
		HintGen:     res.HintGen,
		Hints:       len(res.Hints),
		Quarantined: len(res.Quarantine),
		Scan:        auditScanStats(res.Scan),
		RequestID:   rid,
	})
}

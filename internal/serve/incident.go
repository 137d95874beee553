package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/drift"
)

// Incident engine: the flight recorder's capture arm. Detection
// already exists (SLO burn rates, drift quarantine, WAL fail-stop);
// this layer turns a detection into evidence, at the moment of the
// anomaly, without an operator attached: when a trigger fires it
// writes a timestamped diagnostic bundle — goroutine + heap profiles,
// the retained slow-trace ring, the full stats document with every
// stage's and route's raw latency buckets — into -incident-dir,
// debounced so a sustained burn yields one incident rather than
// thousands.

// Incident trigger reasons.
const (
	incidentBurn       = "burn"       // SLO burn rate crossed the threshold
	incidentQuarantine = "quarantine" // a template entered quarantine
	incidentWAL        = "wal"        // journal append/commit failed (fail-stop)
	incidentManual     = "manual"     // operator POST /v2/incidents
)

// The engine's fixed values.
const (
	// incidentBurnThreshold is the shortest-window burn rate that trips
	// the SLO trigger: burning the error budget at twice the sustainable
	// rate.
	incidentBurnThreshold = 2.0
	// incidentCooldown is the minimum spacing between captures; trigger
	// firings inside it are counted as suppressed.
	incidentCooldown = 5 * time.Minute
	// incidentTick is the trigger-evaluation period.
	incidentTick = time.Second
	// maxBundles bounds the bundles kept on disk; the oldest is removed
	// when a capture exceeds it.
	maxBundles = 32
)

// incidentTriggers is the pure decision core, separated from the
// engine so the crossing/debounce logic is unit-testable with an
// injected clock. Not self-locking; the engine serializes access.
type incidentTriggers struct {
	burnHigh        bool
	prevJournalErrs int64
	fired           bool
	lastFire        time.Time
}

// burnCross reports a rising edge: the burn rate reached the threshold
// after being below it. Sustained burn returns true exactly once.
func (t *incidentTriggers) burnCross(rate float64) bool {
	high := rate >= incidentBurnThreshold
	cross := high && !t.burnHigh
	t.burnHigh = high
	return cross
}

// journalFailure reports that the journal-error counter advanced since
// the last evaluation.
func (t *incidentTriggers) journalFailure(errs int64) bool {
	advanced := errs > t.prevJournalErrs
	t.prevJournalErrs = errs
	return advanced
}

// admit applies the cooldown: a firing inside cooldown of the last
// admitted one is rejected. force (a manual capture) bypasses the
// check but still stamps the window — the operator just captured the
// evidence an automatic trigger would duplicate. Admitted firings
// advance lastFire.
func (t *incidentTriggers) admit(now time.Time, force bool) bool {
	if !force && t.fired && now.Sub(t.lastFire) < incidentCooldown {
		return false
	}
	t.fired = true
	t.lastFire = now
	return true
}

// incidentEvent is an asynchronous trigger firing (quarantine
// transitions arrive from the safeguard's commit path, which must not
// block on a capture).
type incidentEvent struct {
	reason string
	detail string
}

type incidentEngine struct {
	srv *Server
	dir string

	events   chan incidentEvent
	stopCh   chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	triggered   atomic.Int64
	capturedN   atomic.Int64
	suppressed  atomic.Int64
	captureErrs atomic.Int64

	// mu guards the trigger state and the bundle index.
	mu                sync.Mutex
	trig              incidentTriggers
	bundles           []api.IncidentMeta // oldest first
	lastCaptureMicros int64
}

// newIncidentEngine indexes the bundles already in dir; the first
// capture creates dir if it does not exist.
func newIncidentEngine(s *Server, dir string) *incidentEngine {
	e := &incidentEngine{
		srv:    s,
		dir:    dir,
		events: make(chan incidentEvent, 8),
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	e.loadExisting()
	// Quarantine transitions ride the safeguard's commit path.
	s.guard.setNotify(e.noteTransition)
	return e
}

// start launches the trigger-evaluation loop, evaluating once per tick;
// stop (from Server.Close) terminates it. A second stop waits for the
// loop the first one ended.
func (e *incidentEngine) start(tick time.Duration) { go e.run(tick) }

func (e *incidentEngine) stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	<-e.done
}

func (e *incidentEngine) run(every time.Duration) {
	defer close(e.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-e.stopCh:
			return
		case ev := <-e.events:
			e.fire(time.Now(), ev.reason, ev.detail, 0, false)
		case now := <-tick.C:
			e.evaluate(now)
		}
	}
}

// evaluate runs the polled triggers: SLO burn-rate crossing and
// journal-error advancement. Exported to tests via direct calls with
// an injected clock; the run loop drives it once per tick.
func (e *incidentEngine) evaluate(now time.Time) {
	burn, objective := e.maxBurn(now)
	e.mu.Lock()
	burnCross := e.trig.burnCross(burn)
	walFail := e.trig.journalFailure(e.srv.journalErrors())
	e.mu.Unlock()
	if burnCross {
		e.fire(now, incidentBurn,
			fmt.Sprintf("%s burn rate %.2f crossed threshold %.2f", objective, burn, incidentBurnThreshold), burn, false)
	}
	if walFail {
		e.fire(now, incidentWAL, "journal append/commit failed (fail-stop)", 0, false)
	}
}

// maxBurn reads the worst shortest-window burn rate across the node's
// objectives.
func (e *incidentEngine) maxBurn(now time.Time) (float64, string) {
	t := e.srv.slo
	t.Tick(now)
	worst, name := 0.0, ""
	for _, st := range t.Report(now) {
		if len(st.Windows) == 0 {
			continue
		}
		// Windows are sorted ascending; the shortest reacts fastest.
		if r := st.Windows[0].BurnRate; r > worst {
			worst, name = r, st.Name
		}
	}
	return worst, name
}

// noteTransition is the safeguard hook: committed transitions into
// quarantine enqueue a trigger without blocking the commit path.
func (e *incidentEngine) noteTransition(tr drift.Transition) {
	if tr.To != drift.StateQuarantined {
		return
	}
	detail := fmt.Sprintf("template %016x quarantined", tr.TemplateHash)
	if tr.Manual {
		detail += " (manual)"
	}
	select {
	case e.events <- incidentEvent{reason: incidentQuarantine, detail: detail}:
	default:
		// Queue full means captures are already backed up; the cooldown
		// would suppress this firing anyway.
		e.triggered.Add(1)
		e.suppressed.Add(1)
	}
}

// fire applies the cooldown and captures a bundle. force bypasses the
// cooldown (manual captures).
func (e *incidentEngine) fire(now time.Time, reason, detail string, burn float64, force bool) (api.IncidentMeta, error) {
	e.triggered.Add(1)
	e.mu.Lock()
	admitted := e.trig.admit(now, force)
	last := e.trig.lastFire
	e.mu.Unlock()
	if !admitted {
		e.suppressed.Add(1)
		return api.IncidentMeta{}, api.Errorf(api.CodeInvalidRequest,
			"incident capture suppressed: cooldown %s since %s", incidentCooldown, last.Format(time.RFC3339))
	}
	return e.capture(now, reason, detail, burn)
}

// capture writes one diagnostic bundle. It must NOT hold e.mu while
// snapshotting: stats.json embeds the incidents block, whose assembly
// takes the lock. Concurrent captures are already spaced by admit's
// cooldown stamp; forced overlaps land in distinct timestamped dirs.
// Artifact write failures are counted and skipped — a partial bundle
// with the profiles missing still beats no bundle.
func (e *incidentEngine) capture(now time.Time, reason, detail string, burn float64) (api.IncidentMeta, error) {
	captureStart := time.Now()
	id := fmt.Sprintf("incident-%s-%s", now.UTC().Format("20060102T150405.000"), reason)
	dir := filepath.Join(e.dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		e.captureErrs.Add(1)
		return api.IncidentMeta{}, api.Errorf(api.CodeInternal, "creating incident bundle: %v", err)
	}
	meta := api.IncidentMeta{
		ID:       id,
		Reason:   reason,
		Detail:   detail,
		UnixNano: now.UnixNano(),
		Time:     now.UTC().Format(time.RFC3339Nano),
		BurnRate: burn,
	}

	writeJSONFile := func(name string, v any) {
		b, err := json.MarshalIndent(v, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), b, 0o644)
		}
		if err != nil {
			e.captureErrs.Add(1)
			return
		}
		meta.Files = append(meta.Files, api.IncidentFile{Name: name, Bytes: int64(len(b))})
	}
	writeProfile := func(name, profile string) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			e.captureErrs.Add(1)
			return
		}
		err = pprof.Lookup(profile).WriteTo(f, 0)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			e.captureErrs.Add(1)
			return
		}
		if fi, serr := os.Stat(filepath.Join(dir, name)); serr == nil {
			meta.Files = append(meta.Files, api.IncidentFile{Name: name, Bytes: fi.Size()})
		}
	}

	// The full stats document carries the WAL, replication, drift, SLO,
	// and route/stage state the responder needs first, each stage's and
	// route's raw latency buckets among it.
	writeJSONFile("stats.json", e.srv.Stats())
	writeJSONFile("traces.json", e.srv.tracesResponse("", 0, 0))
	writeProfile("goroutine.pprof", "goroutine")
	writeProfile("heap.pprof", "heap")

	meta.CaptureMicros = time.Since(captureStart).Microseconds()
	b, err := json.MarshalIndent(meta, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "meta.json"), b, 0o644)
	}
	if err != nil {
		e.captureErrs.Add(1)
		return meta, api.Errorf(api.CodeInternal, "writing incident meta: %v", err)
	}
	e.capturedN.Add(1)
	e.mu.Lock()
	e.lastCaptureMicros = meta.CaptureMicros
	e.bundles = append(e.bundles, meta)
	var evict []string
	for len(e.bundles) > maxBundles {
		evict = append(evict, e.bundles[0].ID)
		e.bundles = e.bundles[1:]
	}
	e.mu.Unlock()
	for _, id := range evict {
		os.RemoveAll(filepath.Join(e.dir, id))
	}
	return meta, nil
}

// loadExisting indexes bundles left by earlier runs so `qoserved cluster`
// and GET /v2/incidents see them after a restart.
func (e *incidentEngine) loadExisting() {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(e.dir, ent.Name(), "meta.json"))
		if err != nil {
			continue
		}
		var meta api.IncidentMeta
		if json.Unmarshal(b, &meta) != nil || meta.ID == "" {
			continue
		}
		e.bundles = append(e.bundles, meta)
	}
	sort.Slice(e.bundles, func(i, j int) bool { return e.bundles[i].UnixNano < e.bundles[j].UnixNano })
}

// list returns the bundle index newest-first.
func (e *incidentEngine) list() []api.IncidentMeta {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]api.IncidentMeta, len(e.bundles))
	for i, m := range e.bundles {
		out[len(out)-1-i] = m
	}
	return out
}

// get re-reads one bundle's meta.json from disk (so a deleted bundle
// 404s even if still indexed).
func (e *incidentEngine) get(id string) (api.IncidentMeta, error) {
	if !validIncidentID(id) {
		return api.IncidentMeta{}, api.Errorf(api.CodeInvalidRequest, "invalid incident id %q", id)
	}
	b, err := os.ReadFile(filepath.Join(e.dir, id, "meta.json"))
	if err != nil {
		return api.IncidentMeta{}, api.Errorf(api.CodeNotFound, "no incident %q", id)
	}
	var meta api.IncidentMeta
	if err := json.Unmarshal(b, &meta); err != nil {
		return api.IncidentMeta{}, api.Errorf(api.CodeInternal, "corrupt incident meta for %q: %v", id, err)
	}
	return meta, nil
}

// file opens one bundle artifact for streaming.
func (e *incidentEngine) file(id, name string) (*os.File, error) {
	if !validIncidentID(id) || !validIncidentID(name) {
		return nil, api.Errorf(api.CodeInvalidRequest, "invalid incident file %q/%q", id, name)
	}
	f, err := os.Open(filepath.Join(e.dir, id, name))
	if err != nil {
		return nil, api.Errorf(api.CodeNotFound, "no artifact %q in incident %q", name, id)
	}
	return f, nil
}

// validIncidentID rejects path traversal in client-supplied bundle and
// artifact names.
func validIncidentID(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return s != "." && s != ".."
}

// stats assembles the /v2/stats incidents block (nil-safe: a disabled
// engine contributes no block).
func (e *incidentEngine) stats() *api.IncidentStats {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	count := int64(len(e.bundles))
	var last *api.IncidentMeta
	if n := len(e.bundles); n > 0 {
		last = &e.bundles[n-1]
	}
	st := &api.IncidentStats{
		Enabled:       true,
		Count:         count,
		Triggered:     e.triggered.Load(),
		Captured:      e.capturedN.Load(),
		Suppressed:    e.suppressed.Load(),
		CaptureErrors: e.captureErrs.Load(),
		BurnThreshold: incidentBurnThreshold,
		CooldownSec:   incidentCooldown.Seconds(),
	}
	if last != nil {
		st.LastAgeSec = time.Since(time.Unix(0, last.UnixNano)).Seconds()
		st.LastCaptureMicros = e.lastCaptureMicros
		st.LastReason = last.Reason
		st.LastID = last.ID
	}
	e.mu.Unlock()
	return st
}

// tracesResponse renders the retained ring as a /v2/traces answer: a
// Chrome-trace document (the traceEvents key loads directly in
// chrome://tracing / Perfetto, each retained trace as its own pid)
// plus per-trace metadata.
func (s *Server) tracesResponse(route string, minDur time.Duration, limit int) api.TracesResponse {
	resp := api.TracesResponse{TraceEvents: []api.TraceEvent{}, Traces: []api.TraceMeta{}}
	epoch := s.flight.Epoch()
	for _, rt := range s.flight.Query(route, minDur, limit) {
		resp.Traces = append(resp.Traces, api.TraceMeta{
			Seq:       rt.Seq,
			Route:     rt.Route,
			RequestID: rt.RequestID,
			Reason:    rt.Reason,
			Status:    rt.Status,
			StartUnix: float64(rt.Start.UnixNano()) / 1e9,
			DurMicros: rt.Duration.Microseconds(),
			Events:    len(rt.Events),
		})
		for _, ev := range rt.Events {
			resp.TraceEvents = append(resp.TraceEvents, api.TraceEvent{
				Name: ev.Name,
				Cat:  ev.Cat,
				Ph:   "X",
				Ts:   float64(ev.Start.Sub(epoch)) / float64(time.Microsecond),
				Dur:  float64(ev.Duration) / float64(time.Microsecond),
				Pid:  int(rt.Seq),
				Tid:  ev.TID,
				Args: map[string]string{"requestId": rt.RequestID, "reason": rt.Reason, "route": rt.Route},
			})
		}
	}
	return resp
}

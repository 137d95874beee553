package obs

import (
	"sync"
	"time"
)

// Request-scoped stage tracing. Every served request carries a Trace: a
// pooled span buffer the serving layers append stage timings to
// (hint-cache lookup, bandit rank, WAL append, commit wait, ...). The
// FlightRecorder that issued it decides at FinishRequest whether the
// trace is kept (see flight.go); everything else returns to the pool.

type traceEvent struct {
	name, cat string
	tid       int
	start     time.Time
	dur       time.Duration
}

// Trace records the stage spans of one request. Stage and
// FinishRequest are safe for concurrent use (batch handlers fan jobs
// out over a worker pool) and nil-safe (embedded callers that rank
// outside an HTTP request thread a nil *Trace).
type Trace struct {
	rec *FlightRecorder

	mu        sync.Mutex
	requestID string
	events    []traceEvent
}

// SetRequestID attaches the request's correlation ID to every event.
func (tr *Trace) SetRequestID(rid string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.requestID = rid
	tr.mu.Unlock()
}

// Stage records one completed stage span. tid groups spans into rows
// (a batch job index renders each job as its own track); start/dur
// are the span's boundaries as measured by the caller.
func (tr *Trace) Stage(tid int, name string, start time.Time, dur time.Duration) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.events = append(tr.events, traceEvent{name: name, cat: "stage", tid: tid, start: start, dur: dur})
	tr.mu.Unlock()
}

// FinishRequest records the request-level span and hands the trace to
// its recorder for the retention decision: keep iff errored (status >=
// 500) or slow. The trace must not be used afterwards —
// it returns to the recorder's buffer pool.
func (tr *Trace) FinishRequest(name string, start time.Time, dur time.Duration, status int) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.events = append(tr.events, traceEvent{name: name, cat: "request", tid: 0, start: start, dur: dur})
	tr.mu.Unlock()
	tr.rec.finish(tr, name, start, dur, status)
}

// reset clears a pooled trace for reuse.
func (tr *Trace) reset() {
	tr.mu.Lock()
	tr.events = tr.events[:0]
	tr.requestID = ""
	tr.mu.Unlock()
}

package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: the one trace sink. EVERY request records stage
// spans into a pooled buffer, and only at FinishRequest — when the
// latency and status are known — does the trace earn retention: it
// errored, it was slow, or the 1-in-N head-sample election picked it.
// Head sampling answers "what does a typical request look like"; the
// error and slow reasons catch the p999 outliers that burn an error
// budget and are almost never the 1-in-N that got elected. Retained
// traces land in a bounded ring queryable over /v2/traces; everything
// else returns to the pool, so the unretained fast path adds ~0
// allocations per request. Head-sampled traces are additionally
// written to the optional export stream (the -trace-out file) as
// Chrome-trace JSON ("trace event format", ph="X" complete events),
// loadable in chrome://tracing, Perfetto, or speedscope — an unbiased
// baseline beside the ring's outliers.

// Retention thresholds and capacity defaults.
const (
	// DefaultRetainThreshold is the slow-trace cutoff for routes
	// without a per-route override.
	DefaultRetainThreshold = 250 * time.Millisecond
	// DefaultFlightCapacity bounds the retained ring: ~256 traces of a
	// few KB each keeps the recorder's memory ceiling in the low MB.
	DefaultFlightCapacity = 256
)

// Retention reasons, in decision precedence order.
const (
	RetainError   = "error"   // request failed server-side (status >= 500)
	RetainSlow    = "slow"    // duration crossed the route's threshold
	RetainSampled = "sampled" // head-sample elected (the 1-in-N export arm)
)

// FlightConfig parameterizes a recorder.
type FlightConfig struct {
	// Capacity bounds the retained ring (0 = DefaultFlightCapacity).
	Capacity int
	// Threshold is the slow cutoff for routes without an override
	// (0 = DefaultRetainThreshold).
	Threshold time.Duration
	// RouteThresholds overrides the slow cutoff per route name. A
	// negative value disables slow retention for that route — the
	// escape hatch for long-poll endpoints that are slow by design.
	RouteThresholds map[string]time.Duration
	// SampleEvery head-samples one request in every SampleEvery,
	// retained with reason "sampled" (0 = no head sampling, or every
	// request when Export is set).
	SampleEvery int
	// Export, when non-nil, receives every head-sampled trace as
	// Chrome-trace JSON. If it also implements io.Closer, Close closes it
	// after finishing the JSON document.
	Export io.Writer
}

// SpanEvent is one retained span in exported form.
type SpanEvent struct {
	Name     string
	Cat      string
	TID      int
	Start    time.Time
	Duration time.Duration
}

// RetainedTrace is one request kept by the recorder. Immutable after
// insertion; Query returns copies sharing the (never mutated) Events
// slice.
type RetainedTrace struct {
	Seq       uint64 // monotonic retention sequence, 1-based
	Route     string
	RequestID string
	Reason    string // RetainError | RetainSlow | RetainSampled
	Status    int    // HTTP status (0 when unknown)
	Start     time.Time
	Duration  time.Duration
	Events    []SpanEvent
}

// FlightStats is a recorder counter snapshot.
type FlightStats struct {
	Retained        int // traces currently in the ring
	Capacity        int
	RetainedSlow    int64
	RetainedError   int64
	RetainedSampled int64
	Evicted         int64 // retained traces pushed out by newer ones
	Threshold       time.Duration
	WriteErrors     int64 // failed writes on the export stream
}

// FlightRecorder is the bounded, lock-protected retention ring, the
// span-buffer pool feeding it, and the optional export stream. Safe for
// concurrent use; the ring and export mutexes are touched only on
// retention and export, never on the fast path.
type FlightRecorder struct {
	cfg   FlightConfig
	epoch time.Time
	pool  sync.Pool
	n     atomic.Uint64 // head-sample election counter

	retainedSlow    atomic.Int64
	retainedError   atomic.Int64
	retainedSampled atomic.Int64
	evicted         atomic.Int64

	mu   sync.Mutex
	ring []RetainedTrace
	head int // oldest slot once the ring is full
	seq  uint64

	// Export stream state. Write failures are latched, not dropped: the
	// first error is kept (werr, under exportMu) and surfaced from Close,
	// the count feeds the qoserved_trace_write_errors_total counter. A
	// trace output on a full disk should fail the shutdown path loudly,
	// not silently truncate the document.
	exportMu sync.Mutex
	wrote    bool
	closed   bool
	werr     error
	werrs    atomic.Int64
}

// NewFlightRecorder builds a recorder; zero-value config fields take
// the package defaults.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultFlightCapacity
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultRetainThreshold
	}
	if cfg.Export != nil && cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	r := &FlightRecorder{cfg: cfg, epoch: time.Now()}
	r.pool.New = func() any { return &Trace{rec: r} }
	return r
}

// Epoch is the recorder's timestamp reference (Chrome-trace ts values
// are rendered relative to it).
func (r *FlightRecorder) Epoch() time.Time { return r.epoch }

// Begin issues the span buffer for one request. It never returns nil:
// every request records, retention is decided at FinishRequest.
func (r *FlightRecorder) Begin() *Trace {
	tr := r.pool.Get().(*Trace)
	tr.head = r.cfg.SampleEvery > 0 && r.n.Add(1)%uint64(r.cfg.SampleEvery) == 0
	return tr
}

// thresholdFor resolves the slow cutoff for a route; negative means
// "never slow".
func (r *FlightRecorder) thresholdFor(route string) time.Duration {
	if d, ok := r.cfg.RouteThresholds[route]; ok {
		return d
	}
	return r.cfg.Threshold
}

// finish applies the retention decision, exports a head-sampled trace,
// and recycles the buffer. Called by Trace.FinishRequest with the
// request event already appended, so a retained or exported copy
// carries the full span set.
func (r *FlightRecorder) finish(tr *Trace, route string, start time.Time, dur time.Duration, status int) {
	if tr.head && r.cfg.Export != nil {
		r.export(tr)
	}
	reason := ""
	if status >= 500 {
		reason = RetainError
		r.retainedError.Add(1)
	} else if thr := r.thresholdFor(route); thr >= 0 && dur >= thr {
		reason = RetainSlow
		r.retainedSlow.Add(1)
	} else if tr.head {
		reason = RetainSampled
		r.retainedSampled.Add(1)
	}
	if reason != "" {
		r.retain(tr, route, reason, status, start, dur)
	}
	tr.reset()
	r.pool.Put(tr)
}

// retain copies the trace's spans into the ring, evicting the oldest
// entry when full.
func (r *FlightRecorder) retain(tr *Trace, route, reason string, status int, start time.Time, dur time.Duration) {
	tr.mu.Lock()
	events := make([]SpanEvent, len(tr.events))
	for i, ev := range tr.events {
		events[i] = SpanEvent{Name: ev.name, Cat: ev.cat, TID: ev.tid, Start: ev.start, Duration: ev.dur}
	}
	rid := tr.requestID
	tr.mu.Unlock()

	rt := RetainedTrace{
		Route:     route,
		RequestID: rid,
		Reason:    reason,
		Status:    status,
		Start:     start,
		Duration:  dur,
		Events:    events,
	}
	r.mu.Lock()
	r.seq++
	rt.Seq = r.seq
	if len(r.ring) < r.cfg.Capacity {
		r.ring = append(r.ring, rt)
	} else {
		r.ring[r.head] = rt
		r.head = (r.head + 1) % len(r.ring)
		r.evicted.Add(1)
	}
	r.mu.Unlock()
}

// Query returns retained traces newest-first, filtered by route (""
// matches all) and minimum duration, capped at limit (<=0 = all).
func (r *FlightRecorder) Query(route string, minDur time.Duration, limit int) []RetainedTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.ring)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]RetainedTrace, 0, limit)
	for i := 0; i < n && len(out) < limit; i++ {
		// Newest-first: the slot before head holds the latest entry.
		rt := r.ring[((r.head-1-i)%n+n)%n]
		if route != "" && rt.Route != route {
			continue
		}
		if rt.Duration < minDur {
			continue
		}
		out = append(out, rt)
	}
	return out
}

// Stats snapshots the recorder's counters.
func (r *FlightRecorder) Stats() FlightStats {
	r.mu.Lock()
	retained := len(r.ring)
	r.mu.Unlock()
	return FlightStats{
		Retained:        retained,
		Capacity:        r.cfg.Capacity,
		RetainedSlow:    r.retainedSlow.Load(),
		RetainedError:   r.retainedError.Load(),
		RetainedSampled: r.retainedSampled.Load(),
		Evicted:         r.evicted.Load(),
		Threshold:       r.cfg.Threshold,
		WriteErrors:     r.werrs.Load(),
	}
}

// export appends one head-sampled trace's events to the export
// document.
func (r *FlightRecorder) export(tr *Trace) {
	var b strings.Builder
	r.exportMu.Lock()
	defer r.exportMu.Unlock()
	if r.closed {
		return
	}
	tr.mu.Lock()
	for _, ev := range tr.events {
		if r.wrote {
			b.WriteString(",\n")
		} else {
			b.WriteString("[\n")
			r.wrote = true
		}
		ts := float64(ev.start.Sub(r.epoch)) / float64(time.Microsecond)
		dur := float64(ev.dur) / float64(time.Microsecond)
		fmt.Fprintf(&b, `{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"requestId":%q}}`,
			ev.name, ev.cat, ts, dur, ev.tid, tr.requestID)
	}
	tr.mu.Unlock()
	r.writeExport(b.String())
}

// writeExport writes to the export stream, latching a failure; callers
// hold exportMu.
func (r *FlightRecorder) writeExport(s string) {
	if _, err := io.WriteString(r.cfg.Export, s); err != nil {
		r.werrs.Add(1)
		if r.werr == nil {
			r.werr = err
		}
	}
}

// Close terminates the export document and closes the underlying
// writer (when it is closeable); without an export stream it is a
// no-op. Traces finished after Close are still retained but no longer
// exported. Any write error latched during the recorder's lifetime is
// surfaced here: the first event-write failure takes precedence over
// the terminator's own result, so a partially written document never
// closes clean.
func (r *FlightRecorder) Close() error {
	if r.cfg.Export == nil {
		return nil
	}
	r.exportMu.Lock()
	defer r.exportMu.Unlock()
	if r.closed {
		return r.werr
	}
	r.closed = true
	if r.wrote {
		r.writeExport("\n]\n")
	} else {
		r.writeExport("[]\n")
	}
	err := r.werr
	if c, ok := r.cfg.Export.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Flight recorder: the one trace sink. EVERY request records stage
// spans into a pooled buffer, and only at FinishRequest — when the
// latency and status are known — does the trace earn retention: it
// errored or it was slow. Those are the p999 outliers that burn an
// error budget. Retained traces land in a bounded ring queryable over
// /v2/traces, which renders them as Chrome-trace JSON ("trace event
// format", ph="X" complete events) loadable in chrome://tracing,
// Perfetto, or speedscope; everything else returns to the pool, so the
// unretained fast path adds ~0 allocations per request. There is no
// head sampling: at a 256-slot ring, 1-in-N fast traces would evict
// the slow outliers the ring exists to keep.

// The recorder's two fixed values.
const (
	// retainThreshold is the slow-trace cutoff for routes without a
	// per-route override.
	retainThreshold = 250 * time.Millisecond
	// ringCapacity bounds the retained ring: ~256 traces of a few KB
	// each keeps the recorder's memory ceiling in the low MB.
	ringCapacity = 256
)

// Retention reasons, in decision precedence order.
const (
	RetainError = "error" // request failed server-side (status >= 500)
	RetainSlow  = "slow"  // duration crossed the route's threshold
)

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
	Reason    string // RetainError | RetainSlow
	Status    int    // HTTP status (0 when unknown)
	Start     time.Time
	Duration  time.Duration
	Events    []SpanEvent
}

// FlightStats is a recorder counter snapshot.
type FlightStats struct {
	Retained      int // traces currently in the ring
	Capacity      int
	RetainedSlow  int64
	RetainedError int64
	Evicted       int64 // retained traces pushed out by newer ones
	Threshold     time.Duration
}

// FlightRecorder is the bounded, lock-protected retention ring and the
// span-buffer pool feeding it. Safe for concurrent use; the ring mutex
// is touched only on retention, never on the fast path.
type FlightRecorder struct {
	routeThresholds map[string]time.Duration // see NewFlightRecorder
	epoch           time.Time
	pool            sync.Pool

	retainedSlow  atomic.Int64
	retainedError atomic.Int64
	evicted       atomic.Int64

	mu   sync.Mutex
	ring []RetainedTrace
	head int // oldest slot once the ring is full
	seq  uint64
}

// NewFlightRecorder builds a recorder. routeThresholds overrides the
// slow cutoff per route name; a negative value disables slow retention
// for that route — the escape hatch for long-poll endpoints that are
// slow by design.
func NewFlightRecorder(routeThresholds map[string]time.Duration) *FlightRecorder {
	r := &FlightRecorder{routeThresholds: routeThresholds, epoch: time.Now()}
	r.pool.New = func() any { return &Trace{rec: r} }
	return r
}

// Epoch is the recorder's timestamp reference (Chrome-trace ts values
// are rendered relative to it).
func (r *FlightRecorder) Epoch() time.Time { return r.epoch }

// Begin issues the span buffer for one request. It never returns nil:
// every request records, retention is decided at FinishRequest.
func (r *FlightRecorder) Begin() *Trace {
	return r.pool.Get().(*Trace)
}

// thresholdFor resolves the slow cutoff for a route; negative means
// "never slow".
func (r *FlightRecorder) thresholdFor(route string) time.Duration {
	if d, ok := r.routeThresholds[route]; ok {
		return d
	}
	return retainThreshold
}

// finish applies the retention decision and recycles the buffer.
// Called by Trace.FinishRequest with the request event already
// appended, so a retained copy carries the full span set.
func (r *FlightRecorder) finish(tr *Trace, route string, start time.Time, dur time.Duration, status int) {
	reason := ""
	if status >= 500 {
		reason = RetainError
		r.retainedError.Add(1)
	} else if thr := r.thresholdFor(route); thr >= 0 && dur >= thr {
		reason = RetainSlow
		r.retainedSlow.Add(1)
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
	if len(r.ring) < ringCapacity {
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
		Retained:      retained,
		Capacity:      ringCapacity,
		RetainedSlow:  r.retainedSlow.Load(),
		RetainedError: r.retainedError.Load(),
		Evicted:       r.evicted.Load(),
		Threshold:     retainThreshold,
	}
}

package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func finishOne(r *FlightRecorder, route string, dur time.Duration, status int) {
	tr := r.Begin()
	start := time.Now()
	tr.Stage(1, "stage_a", start, dur/2)
	tr.FinishRequest(route, start, dur, status)
}

func TestFlightRetainsSlowErroredAndSampled(t *testing.T) {
	// 1-in-2 head sampling: every second request below is elected.
	r := NewFlightRecorder(FlightConfig{Threshold: 10 * time.Millisecond, SampleEvery: 2})

	finishOne(r, "/fast", time.Millisecond, 200)        // unretained
	finishOne(r, "/sampled", time.Millisecond, 200)     // elected: sampled
	finishOne(r, "/slow", 20*time.Millisecond, 200)     // slow
	finishOne(r, "/slow2", 20*time.Millisecond, 200)    // elected: slow wins over sampled
	finishOne(r, "/boom", time.Millisecond, 500)        // error
	finishOne(r, "/slowboom", 20*time.Millisecond, 503) // elected: error wins over slow
	got := r.Query("", 0, 0)
	if len(got) != 5 {
		t.Fatalf("retained %d traces, want 5", len(got))
	}
	reasons := map[string]string{}
	for _, rt := range got {
		reasons[rt.Route] = rt.Reason
	}
	want := map[string]string{
		"/slow": RetainSlow, "/boom": RetainError, "/slowboom": RetainError,
		"/sampled": RetainSampled, "/slow2": RetainSlow,
	}
	for route, reason := range want {
		if reasons[route] != reason {
			t.Errorf("route %s retained as %q, want %q", route, reasons[route], reason)
		}
	}
	st := r.Stats()
	if st.RetainedSlow != 2 || st.RetainedError != 2 || st.RetainedSampled != 1 {
		t.Errorf("stats = %+v, want 2 slow / 2 error / 1 sampled", st)
	}
}

func TestFlightRouteThresholdOverrides(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{
		Threshold:       time.Hour,
		RouteThresholds: map[string]time.Duration{"/rank": time.Millisecond, "/stream": -1},
	})
	finishOne(r, "/rank", 5*time.Millisecond, 200)  // over the route override
	finishOne(r, "/other", 5*time.Millisecond, 200) // under the default
	finishOne(r, "/stream", 10*time.Minute, 200)    // slow retention disabled
	if got := r.Query("", 0, 0); len(got) != 1 || got[0].Route != "/rank" {
		t.Fatalf("retained %v, want exactly /rank", got)
	}
}

func TestFlightRingBoundsAndEvicts(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Capacity: 4, Threshold: time.Millisecond})
	for i := 0; i < 10; i++ {
		finishOne(r, "/slow", 2*time.Millisecond, 200)
	}
	got := r.Query("", 0, 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(got))
	}
	// Newest first: sequence numbers 10,9,8,7.
	for i, rt := range got {
		if want := uint64(10 - i); rt.Seq != want {
			t.Errorf("Query()[%d].Seq = %d, want %d", i, rt.Seq, want)
		}
	}
	if st := r.Stats(); st.Evicted != 6 {
		t.Errorf("Evicted = %d, want 6", st.Evicted)
	}
}

func TestFlightQueryFilters(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Threshold: time.Millisecond})
	finishOne(r, "/a", 5*time.Millisecond, 200)
	finishOne(r, "/b", 50*time.Millisecond, 200)
	finishOne(r, "/a", 100*time.Millisecond, 200)
	if got := r.Query("/a", 0, 0); len(got) != 2 {
		t.Errorf("route filter: got %d, want 2", len(got))
	}
	if got := r.Query("", 40*time.Millisecond, 0); len(got) != 2 {
		t.Errorf("minDur filter: got %d, want 2", len(got))
	}
	if got := r.Query("", 0, 1); len(got) != 1 || got[0].Route != "/a" || got[0].Duration != 100*time.Millisecond {
		t.Errorf("limit: got %v, want the newest /a", got)
	}
}

func TestFlightRetainedTraceCarriesSpans(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Threshold: time.Millisecond})
	tr := r.Begin()
	tr.SetRequestID("req-42")
	start := time.Now()
	tr.Stage(1, "rank_hint_lookup", start, 10*time.Microsecond)
	tr.Stage(1, "rank_bandit", start, 20*time.Microsecond)
	tr.FinishRequest("/v2/rank", start, 5*time.Millisecond, 200)
	got := r.Query("/v2/rank", 0, 1)
	if len(got) != 1 {
		t.Fatal("trace not retained")
	}
	rt := got[0]
	if rt.RequestID != "req-42" {
		t.Errorf("RequestID = %q", rt.RequestID)
	}
	if len(rt.Events) != 3 {
		t.Fatalf("retained %d events, want 2 stages + 1 request", len(rt.Events))
	}
	last := rt.Events[2]
	if last.Cat != "request" || last.Name != "/v2/rank" || last.Duration != 5*time.Millisecond {
		t.Errorf("request event = %+v", last)
	}
}

// TestFlightUnretainedPathAllocs pins the tentpole's fast-path
// guarantee: a request that is neither slow, errored, nor head-sampled
// must complete the Begin → Stage → FinishRequest cycle without
// allocating (the span buffer pool absorbs it).
func TestFlightUnretainedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the 0-alloc bound holds only in normal builds")
	}
	r := NewFlightRecorder(FlightConfig{Threshold: time.Hour})
	// Warm the pool and the events slice capacity.
	for i := 0; i < 16; i++ {
		finishOne(r, "/fast", time.Microsecond, 200)
	}
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		tr := r.Begin()
		tr.Stage(1, "stage_a", start, time.Microsecond)
		tr.Stage(1, "stage_b", start, time.Microsecond)
		tr.FinishRequest("/fast", start, 2*time.Microsecond, 200)
	})
	if allocs > 0 {
		t.Errorf("unretained path allocates %.1f per request, want 0", allocs)
	}
}

// TestFlightNilSafety: a recorder without an export stream (the
// default — no -trace-out) never head-samples, and its Close is a
// no-op rather than a nil-writer dereference.
func TestFlightNilSafety(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Threshold: time.Hour})
	finishOne(r, "/fast", time.Microsecond, 200)
	if st := r.Stats(); st.RetainedSampled != 0 || st.WriteErrors != 0 {
		t.Errorf("export-less recorder stats = %+v, want nothing sampled or failed", st)
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close without an export stream = %v", err)
	}
}

// TestFlightHeadSampledExportStillWritten pins composition:
// head-elected traces reach the Chrome-trace export stream (the
// -trace-out arm) AND the ring, with reason "sampled".
func TestFlightHeadSampledExportStillWritten(t *testing.T) {
	var b strings.Builder
	r := NewFlightRecorder(FlightConfig{Threshold: time.Hour, Export: &b, SampleEvery: 2}) // every 2nd request elected
	for i := 0; i < 4; i++ {
		finishOne(r, "/fast", time.Microsecond, 200)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if got := strings.Count(out, `"cat":"request"`); got != 2 {
		t.Errorf("exported %d request events, want 2 (1-in-2 head sampling): %s", got, out)
	}
	if st := r.Stats(); st.RetainedSampled != 2 {
		t.Errorf("RetainedSampled = %d, want 2", st.RetainedSampled)
	}
}

// failAfterWriter fails every write after the first n bytes.
type failAfterWriter struct {
	n       int
	written int
}

var errWriterFull = errors.New("disk full")

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errWriterFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestTracerLatchesWriteError: a failed export write is not dropped on
// the floor — the first failure is latched, counted, and surfaced from
// Close.
func TestTracerLatchesWriteError(t *testing.T) {
	w := &failAfterWriter{n: 64}
	tracer := NewFlightRecorder(FlightConfig{Export: w})
	for i := 0; i < 8; i++ {
		finishOne(tracer, "/v2/rank", time.Millisecond, 200)
	}
	if got := tracer.Stats().WriteErrors; got == 0 {
		t.Fatal("WriteErrors = 0 after failing writes")
	}
	if err := tracer.Close(); !errors.Is(err, errWriterFull) {
		t.Fatalf("Close = %v, want the latched write error", err)
	}
	// Close is idempotent and keeps surfacing the latched error.
	if err := tracer.Close(); !errors.Is(err, errWriterFull) {
		t.Fatalf("second Close = %v, want the latched write error", err)
	}
}

func TestTracerCloseErrorLatched(t *testing.T) {
	// Writer that accepts events but fails on the closing terminator.
	w := &failAfterWriter{n: 400}
	tracer := NewFlightRecorder(FlightConfig{Export: w})
	finishOne(tracer, "/v2/rank", time.Millisecond, 200)
	w.n = w.written // next write (the "\n]\n" terminator) fails
	if err := tracer.Close(); !errors.Is(err, errWriterFull) {
		t.Fatalf("Close = %v, want terminator write error", err)
	}
	if got := tracer.Stats().WriteErrors; got != 1 {
		t.Errorf("WriteErrors = %d, want 1", got)
	}
}

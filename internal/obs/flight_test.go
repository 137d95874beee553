package obs

import (
	"testing"
	"time"

	"qoadvisor/internal/budget"
)

func finishOne(r *FlightRecorder, route string, dur time.Duration, status int) {
	tr := r.Begin()
	start := time.Now()
	tr.Stage(1, "stage_a", start, dur/2)
	tr.FinishRequest(route, start, dur, status)
}

func TestFlightRetainsSlowAndErrored(t *testing.T) {
	r := NewFlightRecorder(nil)

	finishOne(r, "/fast", time.Millisecond, 200)      // unretained
	finishOne(r, "/slow", 2*retainThreshold, 200)     // slow
	finishOne(r, "/boom", time.Millisecond, 500)      // error
	finishOne(r, "/slowboom", 2*retainThreshold, 503) // error wins over slow
	got := r.Query("", 0, 0)
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	reasons := map[string]string{}
	for _, rt := range got {
		reasons[rt.Route] = rt.Reason
	}
	want := map[string]string{"/slow": RetainSlow, "/boom": RetainError, "/slowboom": RetainError}
	for route, reason := range want {
		if reasons[route] != reason {
			t.Errorf("route %s retained as %q, want %q", route, reasons[route], reason)
		}
	}
	st := r.Stats()
	if st.RetainedSlow != 1 || st.RetainedError != 2 {
		t.Errorf("stats = %+v, want 1 slow / 2 error", st)
	}
}

func TestFlightRouteThresholdOverrides(t *testing.T) {
	r := NewFlightRecorder(map[string]time.Duration{"/rank": time.Millisecond, "/stream": -1})
	finishOne(r, "/rank", 5*time.Millisecond, 200)  // over the route override
	finishOne(r, "/other", 5*time.Millisecond, 200) // under the default
	finishOne(r, "/stream", 10*time.Minute, 200)    // slow retention disabled
	if got := r.Query("", 0, 0); len(got) != 1 || got[0].Route != "/rank" {
		t.Fatalf("retained %v, want exactly /rank", got)
	}
}

func TestFlightRingBoundsAndEvicts(t *testing.T) {
	r := NewFlightRecorder(map[string]time.Duration{"/slow": time.Millisecond})
	const n = ringCapacity + 6
	for i := 0; i < n; i++ {
		finishOne(r, "/slow", 2*time.Millisecond, 200)
	}
	got := r.Query("", 0, 0)
	if len(got) != ringCapacity {
		t.Fatalf("ring holds %d, want capacity %d", len(got), ringCapacity)
	}
	// Newest first: sequence numbers n, n-1, ..., 7.
	for i, rt := range got {
		if want := uint64(n - i); rt.Seq != want {
			t.Errorf("Query()[%d].Seq = %d, want %d", i, rt.Seq, want)
		}
	}
	if st := r.Stats(); st.Evicted != 6 {
		t.Errorf("Evicted = %d, want 6", st.Evicted)
	}
}

func TestFlightQueryFilters(t *testing.T) {
	r := NewFlightRecorder(map[string]time.Duration{"/a": time.Millisecond, "/b": time.Millisecond})
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
	r := NewFlightRecorder(map[string]time.Duration{"/v2/rank": time.Millisecond})
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
	r := NewFlightRecorder(nil)
	// Warm the pool and the events slice capacity.
	for i := 0; i < 16; i++ {
		finishOne(r, "/fast", time.Microsecond, 200)
	}
	start := time.Now()
	budget.Allocs(t, "obs.flight_unretained", 200, func() {
		tr := r.Begin()
		tr.Stage(1, "stage_a", start, time.Microsecond)
		tr.Stage(1, "stage_b", start, time.Microsecond)
		tr.FinishRequest("/fast", start, 2*time.Microsecond, 200)
	})
}

// TestFlightNilSafety: a recorder with no route overrides runs with
// the 256-trace ring and the 250ms cutoff, and a fast, successful
// request under it is retained nowhere — there is no sampled arm to
// keep it.
func TestFlightNilSafety(t *testing.T) {
	r := NewFlightRecorder(nil)
	for i := 0; i < 200; i++ {
		finishOne(r, "/fast", time.Microsecond, 200)
	}
	want := FlightStats{Capacity: 256, Threshold: 250 * time.Millisecond}
	if st := r.Stats(); st != want {
		t.Errorf("override-free recorder stats = %+v, want %+v", st, want)
	}
	if got := r.Query("", 0, 0); len(got) != 0 {
		t.Errorf("retained %d fast traces, want none", len(got))
	}
}

package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracerSampling(t *testing.T) {
	r := NewFlightRecorder(FlightConfig{Threshold: time.Hour, SampleEvery: 3})
	for i := 0; i < 9; i++ {
		finishOne(r, "/fast", time.Microsecond, 200)
	}
	if sampled := r.Stats().RetainedSampled; sampled != 3 {
		t.Fatalf("sampled %d of 9 at 1-in-3", sampled)
	}
}

func TestTracerNilSafety(t *testing.T) {
	// All methods on a nil trace are no-ops (embedded callers rank
	// outside an HTTP request and thread nil).
	var span *Trace
	span.SetRequestID("x")
	span.Stage(0, "s", time.Now(), time.Millisecond)
	span.FinishRequest("r", time.Now(), time.Millisecond, 200)
}

func TestTraceOutputIsChromeTraceJSON(t *testing.T) {
	var b strings.Builder
	tracer := NewFlightRecorder(FlightConfig{Export: &b})
	tr := tracer.Begin()
	tr.SetRequestID("req-1")
	start := time.Now()
	tr.Stage(1, "hint_lookup", start, 10*time.Microsecond)
	tr.Stage(1, "bandit_rank", start.Add(10*time.Microsecond), 90*time.Microsecond)
	tr.FinishRequest("/v2/rank", start, 120*time.Microsecond, 200)
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	var events []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args struct {
			RequestID string `json:"requestId"`
		} `json:"args"`
	}
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("output is not a JSON event array: %v\n%s", err, b.String())
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for _, ev := range events {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X (complete event)", ev.Name, ev.Ph)
		}
		if ev.Args.RequestID != "req-1" {
			t.Errorf("event %q: requestId = %q", ev.Name, ev.Args.RequestID)
		}
	}
	if events[2].Name != "/v2/rank" || events[2].Cat != "request" {
		t.Errorf("last event should be the request span, got %+v", events[2])
	}
	if events[1].Dur < events[0].Dur {
		t.Errorf("bandit stage (%v) should outlast hint lookup (%v)", events[1].Dur, events[0].Dur)
	}
}

func TestTracerEmptyCloseIsValidJSON(t *testing.T) {
	var b strings.Builder
	tracer := NewFlightRecorder(FlightConfig{Export: &b})
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("empty trace output invalid: %v (%q)", err, b.String())
	}
	if len(events) != 0 {
		t.Fatalf("empty tracer emitted %d events", len(events))
	}
}

func TestTraceAfterCloseIsDropped(t *testing.T) {
	var b strings.Builder
	tracer := NewFlightRecorder(FlightConfig{Export: &b})
	tr := tracer.Begin()
	tracer.Close()
	tr.FinishRequest("late", time.Now(), time.Millisecond, 200) // must not corrupt the closed document
	var events []any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("document corrupted by post-close finish: %v (%q)", err, b.String())
	}
}

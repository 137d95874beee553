package obs

import (
	"math"
	"testing"
	"time"
)

func TestCountBelow(t *testing.T) {
	var h Histogram
	// 10 samples at 100µs, 10 at 10ms.
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Microsecond)
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	if got := s.CountBelow(time.Millisecond); math.Abs(got-10) > 1e-9 {
		t.Fatalf("CountBelow(1ms) = %v, want 10 (only the fast half)", got)
	}
	if got := s.CountBelow(time.Second); math.Abs(got-20) > 1e-9 {
		t.Fatalf("CountBelow(1s) = %v, want all 20", got)
	}
	if got := s.CountBelow(0); got != 0 {
		t.Fatalf("CountBelow(0) = %v, want 0 (no zero-duration samples)", got)
	}
	// Threshold inside a populated bucket interpolates to a fraction.
	mid := s.CountBelow(12 * time.Millisecond)
	if mid <= 10 || mid >= 20 {
		t.Fatalf("CountBelow inside covering bucket = %v, want between 10 and 20", mid)
	}
}

func TestCountBelowZeroBucket(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(0)
	if got := h.Snapshot().CountBelow(0); got != 2 {
		t.Fatalf("zero-duration samples must count at threshold 0, got %v", got)
	}
}

func TestSnapshotFromPartsRoundTrip(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
	s := h.Snapshot()
	back := SnapshotFromParts(s.Sum, s.Buckets[:])
	if back != s {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, s)
	}
	// Oversized input collapses into the tail bucket instead of dropping.
	long := make([]uint64, NumHistBuckets+3)
	long[NumHistBuckets+2] = 7
	long[3] = 2
	got := SnapshotFromParts(0, long)
	if got.Count != 9 || got.Buckets[NumHistBuckets-1] != 7 || got.Buckets[3] != 2 {
		t.Fatalf("oversized buckets mishandled: %+v", got)
	}
}

// TestSLOTrackerWindows drives a latency objective through a healthy
// period and then a violating one, and checks each window's burn rate
// reflects the era it covers.
func TestSLOTrackerWindows(t *testing.T) {
	var h Histogram
	tr := NewSLOTracker(time.Second, 10*time.Second)
	tr.minPeriod = 0
	tr.Add(Objective{
		Name:      "rank_latency",
		Kind:      SLOLatency,
		Target:    0.9,
		Threshold: time.Millisecond,
		Source:    LatencySource(&h, time.Millisecond),
	})

	now := time.Unix(1000, 0)
	// 10 seconds of healthy traffic: 100 fast ops per tick.
	for i := 0; i < 10; i++ {
		for j := 0; j < 100; j++ {
			h.Observe(100 * time.Microsecond)
		}
		tr.Tick(now)
		now = now.Add(time.Second)
	}
	rep := tr.Report(now)
	if len(rep) != 1 || len(rep[0].Windows) != 2 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	for _, w := range rep[0].Windows {
		if w.Compliance != 1 || w.BurnRate != 0 || w.BudgetRemaining != 1 {
			t.Fatalf("healthy era should be fully compliant, got %+v", w)
		}
	}

	// One second of total failure: 100 slow ops.
	for j := 0; j < 100; j++ {
		h.Observe(time.Second)
	}
	tr.Tick(now)
	rep = tr.Report(now)
	short, long := rep[0].Windows[0], rep[0].Windows[1]
	if short.Window != time.Second || long.Window != 10*time.Second {
		t.Fatalf("windows not ascending: %+v", rep[0].Windows)
	}
	// The short window covers only the failing era: compliance 0, burn
	// rate 1/0.1 = 10.
	if math.Abs(short.Compliance) > 1e-9 || math.Abs(short.BurnRate-10) > 1e-6 {
		t.Fatalf("short window should see pure failure (burn 10): %+v", short)
	}
	if short.BudgetRemaining >= 0 {
		t.Fatalf("short window budget should be overspent, got %+v", short)
	}
	// The long window mixes 900 good into 1000 total: compliance 0.9,
	// burn rate 1.0 — exactly at budget.
	if math.Abs(long.Compliance-0.9) > 1e-3 || math.Abs(long.BurnRate-1) > 1e-2 {
		t.Fatalf("long window should dilute to burn ~1: %+v", long)
	}
}

func TestSLOTrackerAvailabilityAndPruning(t *testing.T) {
	good, total := 0.0, 0.0
	tr := NewSLOTracker(time.Second)
	tr.minPeriod = 0
	tr.Add(Objective{
		Name:   "availability",
		Kind:   SLOAvailability,
		Target: 0.99,
		Source: func() (float64, float64) { return good, total },
	})
	now := time.Unix(2000, 0)
	for i := 0; i < 100; i++ {
		good += 99
		total += 100
		tr.Tick(now)
		now = now.Add(100 * time.Millisecond)
	}
	// Ring stays bounded near window/period plus the far baseline.
	tr.mu.Lock()
	n := len(tr.samples)
	tr.mu.Unlock()
	if n > 13 {
		t.Fatalf("sample ring not pruned: %d samples", n)
	}
	rep := tr.Report(now)
	w := rep[0].Windows[0]
	if math.Abs(w.Compliance-0.99) > 1e-6 || math.Abs(w.BurnRate-1) > 1e-3 {
		t.Fatalf("steady 1%% error rate at 1%% budget should burn at 1.0: %+v", w)
	}
	// No traffic at all: compliance 1 by definition.
	good, total = 0, 0 // counter reset
	rep = tr.Report(now)
	if rep[0].Windows[0].Compliance != 1 {
		t.Fatalf("reset counters with no traffic should report compliant: %+v", rep[0].Windows[0])
	}
}

func TestFormatWindow(t *testing.T) {
	cases := map[time.Duration]string{
		30 * time.Second: "30s",
		time.Minute:      "1m",
		5 * time.Minute:  "5m",
		90 * time.Minute: "1h30m",
		time.Hour:        "1h",
	}
	for d, want := range cases {
		if got := FormatWindow(d); got != want {
			t.Errorf("FormatWindow(%v) = %q, want %q", d, got, want)
		}
	}
}

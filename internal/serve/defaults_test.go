package serve

import (
	"context"
	"reflect"
	"testing"

	"qoadvisor/internal/nodetest"
)

// TestEffectiveDefaults pins the numbers a node runs with when nobody
// configures it, as /v2/stats reports them: the three objectives, the
// incident triggers of an engine given only a directory, and the trace
// ring. They are the values the README documents and operators alert
// on; a change that moves one must say so here.
func TestEffectiveDefaults(t *testing.T) {
	_, cl := nodetest.Serve(t, New(Config{}))
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if stats.SLO == nil {
		t.Fatal("a default server reports no slo block")
	}
	type objective struct {
		name, kind      string
		target          float64
		thresholdMicros int64
	}
	var got []objective
	for _, o := range stats.SLO.Objectives {
		got = append(got, objective{o.Name, o.Kind, o.Target, o.ThresholdMicros})
		var windows []string
		for _, w := range o.Windows {
			windows = append(windows, w.Window)
		}
		if want := []string{"1m", "5m", "30m"}; !reflect.DeepEqual(windows, want) {
			t.Errorf("objective %s: windows %v, want %v", o.Name, windows, want)
		}
	}
	want := []objective{
		{"rank_latency", "latency", 0.99, 25_000},
		{"reward_latency", "latency", 0.99, 100_000},
		{"availability", "availability", 0.999, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("objectives:\n got %+v\nwant %+v", got, want)
	}

	if stats.Traces == nil {
		t.Fatal("a default server reports no traces block")
	}
	if stats.Traces.Capacity != 256 || stats.Traces.ThresholdMicros != 250_000 {
		t.Errorf("trace ring: capacity %d, retain threshold %dus; want 256, 250000us",
			stats.Traces.Capacity, stats.Traces.ThresholdMicros)
	}
	if stats.Incidents != nil {
		t.Errorf("a server given no incident directory reports an incidents block: %+v", stats.Incidents)
	}

	_, cl = nodetest.Serve(t, New(Config{IncidentDir: t.TempDir()}))
	stats, err = cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	in := stats.Incidents
	if in == nil || !in.Enabled {
		t.Fatalf("an engine given a directory is not enabled: %+v", in)
	}
	if in.BurnThreshold != 2.0 || in.CooldownSec != 300 {
		t.Errorf("incident triggers: burn threshold %v, cooldown %vs; want 2, 300s", in.BurnThreshold, in.CooldownSec)
	}
}

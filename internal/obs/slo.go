package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// SLO tracking: declared latency/availability objectives plus rolling
// multi-window error-budget burn rates computed from successive
// snapshots of the same cumulative counters the histograms and route
// stats already maintain. Nothing here runs a goroutine — the tracker
// samples lazily whenever Tick is called (the serving layer calls it
// from its stats/metrics paths), so it composes with any lifecycle.
//
// Semantics follow the multi-window burn-rate playbook: an objective
// declares a target fraction of "good" operations (e.g. 0.99 of ranks
// under 25ms); over each window the tracker computes the achieved
// compliance, the burn rate — the observed error rate divided by the
// budgeted error rate, so 1.0 means the budget exactly runs out at the
// end of the SLO period and N means N× too fast — and the fraction of
// the window's error budget still unspent (negative once overspent).

// Objective kinds, reported on the wire and as metric labels.
const (
	SLOLatency      = "latency"
	SLOAvailability = "availability"
)

// Objective declares one service-level objective. Source returns the
// cumulative (good, total) operation counts since process start; the
// tracker differences successive samples of it to get windowed rates.
// Counters must be monotone (histogram snapshots and atomic counters
// both qualify); a regression is treated as a counter reset.
type Objective struct {
	// Name labels the objective everywhere it is reported
	// (qoserved_slo_* series, the /v2/stats slo block).
	Name string
	// Kind is SLOLatency or SLOAvailability (informational).
	Kind string
	// Target is the required good fraction, e.g. 0.99. The error budget
	// is 1 - Target.
	Target float64
	// Threshold is the latency bound of a latency objective
	// (informational; the Source already encodes it).
	Threshold time.Duration
	// Source returns cumulative (good, total) counts.
	Source func() (good, total float64)
}

// LatencySource adapts a Histogram into an Objective source: good =
// observations at or below threshold (interpolated within the covering
// bucket), total = all observations.
func LatencySource(h *Histogram, threshold time.Duration) func() (float64, float64) {
	return func() (float64, float64) {
		s := h.Snapshot()
		return s.CountBelow(threshold), float64(s.Count)
	}
}

// sloSample is one cumulative observation of every objective's
// counters at a point in time.
type sloSample struct {
	at          time.Time
	good, total []float64
}

// SLOTracker computes rolling multi-window compliance and burn rates
// for a set of objectives. Safe for concurrent use.
type SLOTracker struct {
	mu         sync.Mutex
	windows    []time.Duration
	objectives []Objective
	samples    []sloSample
	// minPeriod throttles sampling so high-frequency Tick callers
	// (every scrape, every stats call) keep the ring small.
	minPeriod time.Duration
}

// NewSLOTracker builds a tracker over the given windows (at least one
// is required; they are sorted ascending). The sampling period is an
// eighth of the smallest window, at least a second, so every window
// always spans several samples.
func NewSLOTracker(windows ...time.Duration) *SLOTracker {
	ws := append([]time.Duration(nil), windows...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	minPeriod := ws[0] / 8
	if minPeriod < time.Second {
		minPeriod = time.Second
	}
	return &SLOTracker{windows: ws, minPeriod: minPeriod}
}

// Add registers an objective. Objectives are fixed at declaration
// time; Add must not race Tick/Report (declare before serving).
func (t *SLOTracker) Add(o Objective) {
	if o.Target <= 0 || o.Target >= 1 {
		panic(fmt.Sprintf("obs: SLO %q target must be in (0,1), got %v", o.Name, o.Target))
	}
	t.mu.Lock()
	t.objectives = append(t.objectives, o)
	t.samples = nil // counters changed shape; restart the ring
	t.mu.Unlock()
}

// Tick records a cumulative sample of every objective's counters if at
// least the sampling period has elapsed since the last one. Callers
// hook it into any periodic path (metric scrapes, stats requests);
// extra calls are cheap no-ops.
func (t *SLOTracker) Tick(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.samples); n > 0 && now.Sub(t.samples[n-1].at) < t.minPeriod {
		return
	}
	s := sloSample{at: now, good: make([]float64, len(t.objectives)), total: make([]float64, len(t.objectives))}
	for i := range t.objectives {
		s.good[i], s.total[i] = t.objectives[i].Source()
	}
	t.samples = append(t.samples, s)
	// Prune: keep the newest sample at or beyond the largest window as
	// the far baseline, drop everything older.
	maxW := t.windows[len(t.windows)-1]
	cut := 0
	for cut < len(t.samples)-1 && now.Sub(t.samples[cut+1].at) >= maxW {
		cut++
	}
	if cut > 0 {
		t.samples = append(t.samples[:0], t.samples[cut:]...)
	}
}

// SLOWindowStatus is one objective's state over one window.
type SLOWindowStatus struct {
	Window time.Duration
	// Ops / Good are the windowed operation counts (delta between the
	// live counters and the window's baseline sample).
	Ops  float64
	Good float64
	// Compliance is Good/Ops (1 when the window saw no traffic).
	Compliance float64
	// BurnRate is (1-Compliance)/(1-Target): 1.0 spends the error
	// budget exactly, >1 burns it faster.
	BurnRate float64
	// BudgetRemaining is the unspent fraction of the window's error
	// budget; negative once overspent.
	BudgetRemaining float64
}

// SLOStatus is one objective's multi-window report.
type SLOStatus struct {
	Name      string
	Kind      string
	Target    float64
	Threshold time.Duration
	Windows   []SLOWindowStatus
}

// Report computes every objective's windowed status against the live
// counters. A window with no baseline yet (no sample at least the
// window old) is measured from zero, i.e. over everything the counters
// hold since process start; once a sample ages past the window it
// becomes the baseline and the true window applies.
func (t *SLOTracker) Report(now time.Time) []SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, len(t.objectives))
	for i, o := range t.objectives {
		good, total := o.Source()
		st := SLOStatus{Name: o.Name, Kind: o.Kind, Target: o.Target, Threshold: o.Threshold}
		for _, w := range t.windows {
			bGood, bTotal := 0.0, 0.0
			// Newest sample at least w old is the baseline.
			for j := len(t.samples) - 1; j >= 0; j-- {
				if now.Sub(t.samples[j].at) >= w {
					bGood, bTotal = t.samples[j].good[i], t.samples[j].total[i]
					break
				}
			}
			dGood, dTotal := good-bGood, total-bTotal
			if dGood < 0 || dTotal < 0 { // counter reset: measure from zero
				dGood, dTotal = good, total
			}
			ws := SLOWindowStatus{Window: w, Ops: dTotal, Good: dGood, Compliance: 1}
			if dTotal > 0 {
				ws.Compliance = dGood / dTotal
			}
			// Interpolated CDFs can put Compliance a hair past 1; clamp
			// before deriving rates.
			if ws.Compliance > 1 {
				ws.Compliance = 1
			}
			ws.BurnRate = (1 - ws.Compliance) / (1 - o.Target)
			if math.IsNaN(ws.BurnRate) || math.IsInf(ws.BurnRate, 0) || ws.BurnRate < 0 {
				ws.BurnRate = 0
			}
			ws.BudgetRemaining = 1 - ws.BurnRate
			st.Windows = append(st.Windows, ws)
		}
		out[i] = st
	}
	return out
}

// FormatWindow renders a window duration compactly for labels and wire
// fields ("30s", "5m", "1h30m"), avoiding time.Duration's trailing
// zero units ("5m0s").
func FormatWindow(d time.Duration) string {
	s := d.String()
	for _, suffix := range []string{"m0s", "h0m"} {
		if len(s) > len(suffix) && s[len(s)-len(suffix):] == suffix {
			s = s[:len(s)-2]
		}
	}
	return s
}

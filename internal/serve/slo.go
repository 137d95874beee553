package serve

import (
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/obs"
)

// SLO assembly: the server's default service-level objectives, their
// tracker, and the two faces they are reported through (the /v2/stats
// slo block and the qoserved_slo_* metric families).
//
// Objectives are declared over counters the serving layer already
// maintains — the rank routes' latency histograms and the per-route
// status counters — so tracking adds no hot-path work. The tracker
// samples lazily from the stats/metrics paths (every scrape advances
// the windows), which means burn rates are exactly as fresh as the
// monitoring that reads them and no background goroutine is needed.

// SLOConfig parameterizes the server's objectives. The zero value
// selects the defaults below; Disabled switches the subsystem off.
type SLOConfig struct {
	// Disabled turns SLO tracking off entirely (no slo block, no
	// qoserved_slo_* families).
	Disabled bool
	// RankThreshold is the latency bound of the rank-latency objective:
	// a rank request answered within it is "good" (0 = 25ms).
	RankThreshold time.Duration
	// RankTarget is the required good fraction of rank requests
	// (0 = 0.99).
	RankTarget float64
	// RewardThreshold is the latency bound of the reward-latency
	// objective. Reward acknowledgment includes the journal fsync in
	// sync mode, so the bound is wider than the rank one and a sick
	// disk (fsync stalls) burns this objective first (0 = 100ms).
	RewardThreshold time.Duration
	// RewardTarget is the required good fraction of reward requests
	// (0 = 0.99).
	RewardTarget float64
	// AvailabilityTarget is the required non-5xx fraction across every
	// route (0 = 0.999).
	AvailabilityTarget float64
	// Windows are the rolling burn-rate windows (nil = 1m, 5m, 30m).
	Windows []time.Duration
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.RankThreshold <= 0 {
		c.RankThreshold = 25 * time.Millisecond
	}
	if c.RankTarget <= 0 || c.RankTarget >= 1 {
		c.RankTarget = 0.99
	}
	if c.RewardThreshold <= 0 {
		c.RewardThreshold = 100 * time.Millisecond
	}
	if c.RewardTarget <= 0 || c.RewardTarget >= 1 {
		c.RewardTarget = 0.99
	}
	if c.AvailabilityTarget <= 0 || c.AvailabilityTarget >= 1 {
		c.AvailabilityTarget = 0.999
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{time.Minute, 5 * time.Minute, 30 * time.Minute}
	}
	return c
}

// Objective names of the built-in SLOs.
const (
	sloRankLatency   = "rank_latency"
	sloRewardLatency = "reward_latency"
	sloAvailability  = "availability"
)

// initSLO declares the built-in objectives over the HTTP layer's
// counters. Called by New after the routes exist; a nil tracker (the
// Disabled case) disables every SLO surface.
func (s *Server) initSLO(cfg SLOConfig) {
	if cfg.Disabled {
		return
	}
	cfg = cfg.withDefaults()
	t := obs.NewSLOTracker(cfg.Windows...)

	// Rank latency: good = rank requests answered at or under the
	// threshold.
	rank := s.http.stats[api.RouteV2Rank]
	t.Add(obs.Objective{
		Name:      sloRankLatency,
		Kind:      obs.SLOLatency,
		Target:    cfg.RankTarget,
		Threshold: cfg.RankThreshold,
		Source: func() (float64, float64) {
			snap := rank.lat.Snapshot()
			return snap.CountBelow(cfg.RankThreshold), float64(snap.Count)
		},
	})

	// Reward latency: good = reward batches acknowledged at or under
	// the threshold. The acknowledgment path includes the journal
	// append and (in sync mode) the commit fsync, so this objective is
	// the one a sick disk burns — the incident engine's burn trigger
	// fires on it when fsyncs stall.
	reward := s.http.stats[api.RouteV2Reward]
	t.Add(obs.Objective{
		Name:      sloRewardLatency,
		Kind:      obs.SLOLatency,
		Target:    cfg.RewardTarget,
		Threshold: cfg.RewardThreshold,
		Source: func() (float64, float64) {
			snap := reward.lat.Snapshot()
			return snap.CountBelow(cfg.RewardThreshold), float64(snap.Count)
		},
	})

	// Availability: good = requests not answered 5xx, across every
	// route. 4xx is the client's error, not an availability event.
	routes := make([]*routeStats, 0, len(s.http.stats))
	for _, m := range s.http.stats {
		routes = append(routes, m)
	}
	t.Add(obs.Objective{
		Name:   sloAvailability,
		Kind:   obs.SLOAvailability,
		Target: cfg.AvailabilityTarget,
		Source: func() (float64, float64) {
			var total, bad float64
			for _, m := range routes {
				total += float64(m.lat.Snapshot().Count)
				bad += float64(m.status5xx.Load())
			}
			return total - bad, total
		},
	})
	s.slo = t
}

// SLOTracker exposes the tracker (nil when disabled) for embedding
// callers and tests.
func (s *Server) SLOTracker() *obs.SLOTracker { return s.slo }

// sloStats builds the /v2/stats slo block, advancing the sample ring
// first so every read also feeds the windows.
func (s *Server) sloStats() *api.SLOStats {
	if s.slo == nil {
		return nil
	}
	now := time.Now()
	s.slo.Tick(now)
	rep := s.slo.Report(now)
	out := &api.SLOStats{Objectives: make([]api.SLOObjectiveStats, 0, len(rep))}
	for _, st := range rep {
		o := api.SLOObjectiveStats{
			Name:            st.Name,
			Kind:            st.Kind,
			Target:          st.Target,
			ThresholdMicros: st.Threshold.Microseconds(),
		}
		for _, w := range st.Windows {
			o.Windows = append(o.Windows, api.SLOWindowStats{
				Window:          obs.FormatWindow(w.Window),
				Ops:             w.Ops,
				Compliance:      w.Compliance,
				BurnRate:        w.BurnRate,
				BudgetRemaining: w.BudgetRemaining,
			})
		}
		out.Objectives = append(out.Objectives, o)
	}
	return out
}

// collectSLOMetrics contributes the qoserved_slo_* families.
func (s *Server) collectSLOMetrics(e *obs.Exposition) {
	if s.slo == nil {
		return
	}
	now := time.Now()
	s.slo.Tick(now)
	for _, st := range s.slo.Report(now) {
		base := obs.Labels{{Name: "slo", Value: st.Name}}
		e.Gauge("qoserved_slo_target",
			"Declared good-fraction target of the objective.",
			append(append(obs.Labels{}, base...), obs.Label{Name: "kind", Value: st.Kind}), st.Target)
		if st.Kind == obs.SLOLatency {
			e.Gauge("qoserved_slo_latency_threshold_seconds",
				"Latency bound under which a request counts as good.",
				base, st.Threshold.Seconds())
		}
		for _, w := range st.Windows {
			labels := append(append(obs.Labels{}, base...), obs.Label{Name: "window", Value: obs.FormatWindow(w.Window)})
			e.Gauge("qoserved_slo_window_ops",
				"Operations observed inside the rolling window.", labels, w.Ops)
			e.Gauge("qoserved_slo_compliance_ratio",
				"Achieved good fraction over the rolling window.", labels, w.Compliance)
			e.Gauge("qoserved_slo_burn_rate",
				"Error rate over the window divided by the budgeted rate (1.0 = spending the budget exactly).", labels, w.BurnRate)
			e.Gauge("qoserved_slo_error_budget_remaining",
				"Unspent fraction of the window's error budget (negative once overspent).", labels, w.BudgetRemaining)
		}
	}
}

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

// The node's objectives are fixed. An operator alerts on the burn rate;
// nobody has run a node with other targets.
const (
	// rankLatencyBound is the latency under which a rank request counts
	// as good, and the cutoff at which the flight recorder retains a
	// /v2/rank trace as slow: the requests that burn the budget are the
	// ones kept.
	rankLatencyBound = 25 * time.Millisecond
	// rewardLatencyBound is wider than the rank one: a reward
	// acknowledgment includes the journal fsync in sync mode, so a sick
	// disk (fsync stalls) burns this objective first.
	rewardLatencyBound = 100 * time.Millisecond
	// latencyTarget is the required good fraction of rank and of reward
	// requests.
	latencyTarget = 0.99
	// availabilityTarget is the required non-5xx fraction across every
	// route.
	availabilityTarget = 0.999
)

// Objective names of the built-in SLOs.
const (
	sloRankLatency   = "rank_latency"
	sloRewardLatency = "reward_latency"
	sloAvailability  = "availability"
)

// initSLO declares the built-in objectives over the HTTP layer's
// counters. Called by New after the routes exist.
func (s *Server) initSLO() {
	t := obs.NewSLOTracker(time.Minute, 5*time.Minute, 30*time.Minute) // the rolling burn-rate windows

	// Rank latency: good = rank requests answered at or under the
	// threshold.
	rank := s.http.stats[api.RouteV2Rank]
	t.Add(obs.Objective{
		Name:      sloRankLatency,
		Kind:      obs.SLOLatency,
		Target:    latencyTarget,
		Threshold: rankLatencyBound,
		Source:    obs.LatencySource(&rank.lat, rankLatencyBound),
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
		Target:    latencyTarget,
		Threshold: rewardLatencyBound,
		Source:    obs.LatencySource(&reward.lat, rewardLatencyBound),
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
		Target: availabilityTarget,
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

// sloStats builds the /v2/stats slo block, advancing the sample ring
// first so every read also feeds the windows.
func (s *Server) sloStats() *api.SLOStats {
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

package load

import (
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/fleet"
)

// PhaseReport is one phase's serialized summary inside BENCH_load.json.
type PhaseReport struct {
	Name        string  `json:"name"`
	Shape       string  `json:"shape"`
	DurationSec float64 `json:"durationSec"`
	// OfferedOps is the scheduled arrival count; CompletedOps how many
	// ran to the end. A widening gap means the run was cancelled or the
	// harness itself saturated.
	OfferedOps   int   `json:"offeredOps"`
	CompletedOps int   `json:"completedOps"`
	RankedJobs   int64 `json:"rankedJobs"`
	// GoodputJobsPerSec is successfully ranked jobs per wall second.
	GoodputJobsPerSec float64 `json:"goodputJobsPerSec"`
	// Latency percentiles in milliseconds, measured open-loop (from
	// scheduled send time).
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	// Errors is the typed failure breakdown (api codes + "transport").
	Errors map[string]int64 `json:"errors,omitempty"`
}

// ms renders a duration in float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summarize condenses a Result into its report row.
func Summarize(res Result) PhaseReport {
	h := res.Hist
	mean := 0.0
	if h.Count > 0 {
		mean = h.SumSeconds() / float64(h.Count) * 1000
	}
	return PhaseReport{
		Name:              res.Phase.Name,
		Shape:             string(res.Phase.Shape),
		DurationSec:       res.Elapsed.Seconds(),
		OfferedOps:        res.Offered,
		CompletedOps:      res.Completed,
		RankedJobs:        res.RankedJobs,
		GoodputJobsPerSec: res.Goodput(),
		MeanMs:            mean,
		P50Ms:             ms(h.Quantile(0.50)),
		P90Ms:             ms(h.Quantile(0.90)),
		P99Ms:             ms(h.Quantile(0.99)),
		P999Ms:            ms(h.Quantile(0.999)),
		Errors:            res.Errors,
	}
}

// StallReport is the injected-stall arm: a constant workload measured
// open-loop against a server whose WAL fsync was stalled mid-run. The
// stall must show in the p99 — arrivals kept coming on schedule and
// queued behind the frozen commit.
type StallReport struct {
	StallMs  float64     `json:"stallMs"`
	OpenLoop PhaseReport `json:"openLoop"`
}

// FleetNodeReport is one node row of the end-of-run fleet scrape.
type FleetNodeReport struct {
	Endpoint     string `json:"endpoint"`
	Role         string `json:"role"`
	RankRequests int64  `json:"rankRequests"`
	LagRecords   int64  `json:"lagRecords,omitempty"`
	Quarantined  int    `json:"quarantined,omitempty"`
	Err          string `json:"err,omitempty"`
}

// FleetReport embeds the end-of-run fleet aggregation: per-node rows
// plus the merged /v2/rank distribution, with the invariant inputs
// (fleet count vs Σ node counts) spelled out so a reader — or the CI
// smoke's -fleet-check — can verify the merge arithmetic.
type FleetReport struct {
	Nodes []FleetNodeReport `json:"nodes"`
	// RankFleetCount is the merged rank-route histogram count;
	// RankNodeSum is the same figure recomputed as Σ per-node counts.
	// They must be equal.
	RankFleetCount uint64  `json:"rankFleetCount"`
	RankNodeSum    uint64  `json:"rankNodeSum"`
	RankP50Ms      float64 `json:"rankP50Ms"`
	RankP99Ms      float64 `json:"rankP99Ms"`
	RankP999Ms     float64 `json:"rankP999Ms"`
}

// FleetReportFrom condenses a fleet snapshot for the report.
func FleetReportFrom(snap *fleet.Snapshot) *FleetReport {
	fr := &FleetReport{}
	var nodeSum uint64
	for _, n := range snap.Nodes {
		row := FleetNodeReport{Endpoint: n.Endpoint, Role: n.Role()}
		if n.Err != nil {
			row.Err = n.Err.Error()
		} else {
			row.RankRequests = n.Stats.RankRequests
			if r := n.Stats.Replication; r != nil && r.Role == api.RoleFollower {
				row.LagRecords = r.LagRecords
			}
			if d := n.Stats.Drift; d != nil {
				row.Quarantined = d.QuarantinedNow
			}
			nodeSum += n.Stats.Routes[api.RouteV2Rank].Hist.Snapshot().Count
		}
		fr.Nodes = append(fr.Nodes, row)
	}
	m := snap.Routes[api.RouteV2Rank]
	fr.RankFleetCount = m.Hist.Count
	fr.RankNodeSum = nodeSum
	fr.RankP50Ms = ms(m.Hist.Quantile(0.50))
	fr.RankP99Ms = ms(m.Hist.Quantile(0.99))
	fr.RankP999Ms = ms(m.Hist.Quantile(0.999))
	return fr
}

// IncidentReport summarizes the primary's incident engine and trace
// flight recorder at end of run, scraped from /v2/incidents and
// /v2/traces. CI's incident-smoke step asserts on these fields (a
// bundle captured, a retained trace covering the injected stall)
// without re-parsing the endpoints itself.
type IncidentReport struct {
	// Bundles is the number of diagnostic bundles on disk.
	Bundles    int    `json:"bundles"`
	LastID     string `json:"lastId,omitempty"`
	LastReason string `json:"lastReason,omitempty"`
	// RetainedTraces is the flight-recorder ring occupancy;
	// MaxTraceMs is the longest retained trace's duration.
	RetainedTraces int     `json:"retainedTraces"`
	MaxTraceMs     float64 `json:"maxTraceMs"`
}

// Report is the BENCH_load.json document.
type Report struct {
	Target    string          `json:"target"`
	Seed      int64           `json:"seed"`
	Phases    []PhaseReport   `json:"phases"`
	Stall     *StallReport    `json:"stall,omitempty"`
	Fleet     *FleetReport    `json:"fleet,omitempty"`
	Incidents *IncidentReport `json:"incidents,omitempty"`
}

// Package fleet aggregates a serving cluster's observability into one
// view: it scrapes /v2/healthz and /v2/stats from every node, rebuilds
// the raw latency histograms each node ships (api.Hist →
// obs.HistSnapshot), and merges them into fleet-wide per-route and
// per-stage distributions beside per-node rows (role, health,
// replication lag, quarantine state) and per-node detail.
//
// Merging the raw buckets is the whole point — a p99 of per-node p99s
// is not the fleet p99, but log₂ histograms merge exactly (bucket-wise
// addition), so the fleet percentiles here are as accurate as any
// single node's, and for a one-node fleet they are that node's own.
//
// Consumers: `qoserved cluster host1,host2,...` (one node or many)
// renders the table form, and cmd/qoload embeds a fleet snapshot in
// its end-of-run BENCH_load.json report.
package fleet

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/obs"
)

// Node is one scraped cluster member.
type Node struct {
	Endpoint string
	// Err is the scrape failure, if any; Health and Stats are valid only
	// when nil. A degraded node — a follower whose replication tail has
	// gone stale answers /v2/healthz with 503 "degraded" — is reachable:
	// its Err stays nil.
	Err    error
	Health api.HealthResponse
	Stats  api.StatsResponse
}

// Role reports the node's cluster role ("primary", "follower",
// "standalone", or "?" when the scrape failed).
func (n Node) Role() string {
	switch {
	case n.Err != nil:
		return "?"
	case n.Stats.Replication != nil:
		return n.Stats.Replication.Role
	default:
		return "standalone"
	}
}

// Merged is one series' fleet-wide aggregate: the bucket-wise merge of
// every node's histogram plus the summed wire counters.
type Merged struct {
	// Hist is the merged latency distribution; Hist.Count is the sum of
	// the per-node histogram counts by construction.
	Hist obs.HistSnapshot
	// Count / Errors are the summed route counters (Count mirrors
	// Hist.Count for nodes that ship buckets; Errors is routes-only).
	Count  int64
	Errors int64
}

// Snapshot is one aggregation pass over a cluster.
type Snapshot struct {
	Nodes []Node
	// Routes / Stages hold the fleet-merged series keyed by route path
	// and stage name.
	Routes map[string]Merged
	Stages map[string]Merged
}

// Scrape fetches /v2/healthz, then /v2/stats, from every endpoint
// concurrently and aggregates the answers. Unreachable nodes appear in
// Nodes with Err set and contribute nothing to the merged series; the
// context bounds the whole pass.
func Scrape(ctx context.Context, endpoints []string, opts ...client.Option) *Snapshot {
	nodes := make([]Node, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			cl, n := client.New(ep, opts...), Node{Endpoint: ep}
			// A degraded node answers 503 with its health body: the node
			// is up and its stats still merge.
			if n.Health, n.Err = cl.Health(ctx); n.Health.Status != "" {
				n.Err = nil
			}
			if n.Err == nil {
				n.Stats, n.Err = cl.Stats(ctx)
			}
			nodes[i] = n
		}(i, ep)
	}
	wg.Wait()
	return Aggregate(nodes)
}

// Aggregate merges already-scraped node stats into a fleet snapshot.
// Merge order does not matter: bucket-wise addition is commutative and
// associative, which TestAggregateCommutes pins.
func Aggregate(nodes []Node) *Snapshot {
	s := &Snapshot{
		Nodes:  nodes,
		Routes: make(map[string]Merged),
		Stages: make(map[string]Merged),
	}
	for _, n := range nodes {
		if n.Err != nil {
			continue
		}
		for route, rs := range n.Stats.Routes {
			m := s.Routes[route]
			m.Hist.Merge(rs.Hist.Snapshot())
			m.Count += rs.Count
			m.Errors += rs.Errors
			s.Routes[route] = m
		}
		for stage, ls := range n.Stats.Stages {
			m := s.Stages[stage]
			m.Hist.Merge(ls.Hist.Snapshot())
			m.Count += ls.Count
			s.Stages[stage] = m
		}
	}
	return s
}

// Reachable counts nodes whose scrape succeeded.
func (s *Snapshot) Reachable() int {
	n := 0
	for _, node := range s.Nodes {
		if node.Err == nil {
			n++
		}
	}
	return n
}

// Healthy counts nodes that are reachable and report ok health: the
// gate `qoserved cluster` exits on.
func (s *Snapshot) Healthy() int {
	n := 0
	for _, node := range s.Nodes {
		if node.Err == nil && node.Health.Status == api.HealthOK {
			n++
		}
	}
	return n
}

// micros renders a duration as integer microseconds for the tables.
func micros(d time.Duration) string { return fmt.Sprintf("%d", d.Microseconds()) }

// Render writes the human-readable fleet report: per-node rows, each
// reachable node's detail, then the fleet-merged route and stage
// percentile tables (microseconds).
func (s *Snapshot) Render(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ENDPOINT\tROLE\tHEALTH\tUPTIME\tRANKS\tLAG\tQUARANTINED\tINCIDENTS\tERROR")
	for _, n := range s.Nodes {
		if n.Err != nil {
			fmt.Fprintf(tw, "%s\t?\t-\t-\t-\t-\t-\t-\t%v\n", n.Endpoint, n.Err)
			continue
		}
		lag := "-"
		if r := n.Stats.Replication; r != nil && r.Role == api.RoleFollower {
			lag = fmt.Sprintf("%d", r.LagRecords)
		}
		quar := "-"
		if d := n.Stats.Drift; d != nil {
			quar = fmt.Sprintf("%d", d.QuarantinedNow)
		}
		// Incident column: bundle count plus the newest bundle's age, so
		// a fleet sweep shows where (and how recently) something fired.
		inc := "-"
		if in := n.Stats.Incidents; in != nil {
			inc = fmt.Sprintf("%d", in.Count)
			if in.Count > 0 && in.LastAgeSec > 0 {
				inc += fmt.Sprintf(" (%s ago)", (time.Duration(in.LastAgeSec) * time.Second).String())
			}
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\t%s\t%s\t\n",
			n.Endpoint, n.Role(), n.Health.Status, (time.Duration(n.Stats.UptimeSec) * time.Second).String(),
			n.Stats.RankRequests, lag, quar, inc)
	}
	tw.Flush()
	for _, n := range s.Nodes {
		if n.Err == nil {
			fmt.Fprintf(w, "\nnode %s:\n", n.Endpoint)
			n.render(w)
		}
	}

	fmt.Fprintf(w, "\nfleet routes (%d/%d nodes, latency µs):\n", s.Reachable(), len(s.Nodes))
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ROUTE\tCOUNT\tERRORS\tP50\tP90\tP99\tP999")
	for _, route := range sortedKeys(s.Routes) {
		m := s.Routes[route]
		if m.Count == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\n", route, m.Count, m.Errors,
			micros(m.Hist.Quantile(0.50)), micros(m.Hist.Quantile(0.90)),
			micros(m.Hist.Quantile(0.99)), micros(m.Hist.Quantile(0.999)))
	}
	tw.Flush()

	fmt.Fprintln(w, "\nfleet stages (latency µs):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "STAGE\tCOUNT\tP50\tP90\tP99\tP999")
	for _, stage := range sortedKeys(s.Stages) {
		m := s.Stages[stage]
		if m.Count == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n", stage, m.Count,
			micros(m.Hist.Quantile(0.50)), micros(m.Hist.Quantile(0.90)),
			micros(m.Hist.Quantile(0.99)), micros(m.Hist.Quantile(0.999)))
	}
	tw.Flush()
}

// render writes one reachable node's detail: health, build, serving,
// ingest, journal and checkpoint, safeguard, incidents and flight
// recorder, one line each; a block the node does not report is left out.
func (n Node) render(w io.Writer) {
	h, st := n.Health, n.Stats
	fmt.Fprintf(w, "  health:     %s (generation %d, %d hints, queue %d/%d, up %.1fs)\n",
		h.Status, h.Generation, h.Hints, h.QueueDepth, h.QueueCap, h.UptimeSec)
	if v := st.Version; v != nil {
		fmt.Fprintf(w, "  version:    %s (revision %s, %s)\n", v.Version, obs.Revision(v.Revision, v.Modified), v.GoVersion)
	}
	fmt.Fprintf(w, "  serving:    %d ranks (%d hint hits, %d bandit, %d noops), event log %d\n",
		st.RankRequests, st.HintHits, st.BanditRanks, st.NoOps, st.BanditLog)
	fmt.Fprintf(w, "  ingest:     %d enqueued, %d applied, %d dropped, %d unknown, %d train runs\n",
		st.Ingest.Enqueued, st.Ingest.Applied, st.Ingest.Dropped, st.Ingest.UnknownEvents, st.Ingest.TrainRuns)
	if wl := st.WAL; wl != nil {
		fmt.Fprintf(w, "  wal:        mode=%s lsn %d..%d (synced %d), %d appends / %d syncs, %d segments (%d compacted)\n",
			wl.Mode, wl.FirstLSN, wl.LastLSN, wl.SyncedLSN, wl.Appends, wl.Syncs, wl.Segments, wl.TruncatedSegments)
		fmt.Fprintf(w, "  checkpoint: %d taken, last at offset %d (%d bytes, %dus)\n",
			wl.Checkpoints, wl.LastCheckpointLSN, wl.LastCheckpointB, wl.LastCheckpointUs)
	}
	if d := st.Drift; d != nil && (d.Enabled || d.QuarantinedNow > 0 || d.ProbationNow > 0) {
		fmt.Fprintf(w, "  safeguard:  detection=%v, %d quarantined, %d probation, %d blocked ranks, %d transitions (%d manual)\n",
			d.Enabled, d.QuarantinedNow, d.ProbationNow, d.BlockedRanks, d.Transitions, d.Manual)
	}
	if in := st.Incidents; in != nil {
		fmt.Fprintf(w, "  incidents:  %d bundles, %d triggered (%d suppressed, %d capture errors)",
			in.Count, in.Triggered, in.Suppressed, in.CaptureErrors)
		if in.LastID != "" {
			fmt.Fprintf(w, ", last %s (%s) %.0fs ago", in.LastID, in.LastReason, in.LastAgeSec)
		}
		fmt.Fprintln(w)
	}
	if tr := st.Traces; tr != nil {
		fmt.Fprintf(w, "  flightrec:  %d/%d traces retained (%d slow, %d error), %d evicted, threshold %dms\n",
			tr.Retained, tr.Capacity, tr.RetainedSlow, tr.RetainedError, tr.Evicted, tr.ThresholdMicros/1000)
	}
}

func sortedKeys(m map[string]Merged) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package workload

import (
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
)

// ViewRow is one row of the denormalized workload view (§4, Table 1): the
// join of compile-time and runtime information for one query tree of one
// job. SCOPE jobs are DAGs with one output per query tree, so a job
// contributes one row per output; job-level metrics are duplicated across
// its rows, exactly the disconnect the Feature Generation task resolves.
type ViewRow struct {
	// Identity.
	JobID             string
	TemplateID        string
	NormalizedJobName string
	Date              int
	QueryIndex        int
	QueryTemplate     uint64 // per-tree template hash

	// Optimizer outputs (job level unless noted).
	RuleSignature rules.Signature
	EstimatedCost float64
	EstimatedCard float64 // query level: sum of node cardinality estimates
	AvgRowLength  float64 // query level
	RowCount      float64 // query level: estimated output rows

	// Runtime statistics.
	Latency     float64 // job level, seconds
	PNHours     float64 // job level
	Vertices    int     // job level
	BytesRead   float64 // query level
	MaxMemory   float64 // job level
	AvgMemory   float64 // job level
	DataRead    float64 // job level
	DataWritten float64 // job level

	// Tokens is the job's container allocation.
	Tokens int
}

// BuildViewRows assembles the view rows of one executed job: one row per
// query tree (plan root).
func BuildViewRows(job *Job, res *optimizer.Result, m exec.Metrics) []ViewRow {
	rows := make([]ViewRow, 0, len(res.Plan.Roots))
	for qi, root := range res.Plan.Roots {
		// Per-tree aggregates over the nodes reachable from this root.
		var estCard, bytesRead, widthSum float64
		nNodes := 0
		seen := make(map[*optimizer.PhysNode]bool)
		var visit func(n *optimizer.PhysNode)
		visit = func(n *optimizer.PhysNode) {
			if seen[n] {
				return
			}
			seen[n] = true
			estCard += n.EstRows
			widthSum += float64(n.RowWidth)
			nNodes++
			switch n.Op {
			case optimizer.PhysRowScan, optimizer.PhysColumnScan, optimizer.PhysIndexSeek:
				w := float64(n.BaseWidth)
				if w == 0 {
					w = float64(n.RowWidth)
				}
				bytesRead += n.EstRows * w
			}
			for _, in := range n.Inputs {
				visit(in)
			}
		}
		visit(root)

		avgWidth := 0.0
		if nNodes > 0 {
			avgWidth = widthSum / float64(nNodes)
		}
		queryHash := uint64(0)
		if res.Logical != nil && qi < len(res.Logical.Roots) {
			sub := res.Logical.Roots[qi]
			queryHash = sub.Fingerprint()
		}
		rows = append(rows, ViewRow{
			JobID:             job.ID,
			TemplateID:        job.Template.ID,
			NormalizedJobName: job.Template.Name,
			Date:              job.Date,
			QueryIndex:        qi,
			QueryTemplate:     queryHash,
			RuleSignature:     res.Signature,
			EstimatedCost:     res.EstCost,
			EstimatedCard:     estCard,
			AvgRowLength:      avgWidth,
			RowCount:          root.EstRows,
			Latency:           m.LatencySec,
			PNHours:           m.PNHours,
			Vertices:          m.Vertices,
			BytesRead:         bytesRead,
			MaxMemory:         m.MaxMemory,
			AvgMemory:         m.AvgMemory,
			DataRead:          m.DataRead,
			DataWritten:       m.DataWritten,
			Tokens:            job.Tokens,
		})
	}
	return rows
}

package workload

import (
	"sync"

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

// AppendViewRows appends the view rows of one executed job to dst, one
// row per query tree (plan root), and returns the extended slice. Each
// row's tree aggregates sum over the nodes reachable from its root, each
// once, visited in preorder; the visited marks live in pooled scratch, so
// appending into a dst with room allocates nothing.
func AppendViewRows(dst []ViewRow, job *Job, res *optimizer.Result, m exec.Metrics) []ViewRow {
	a := treeAggs.Get().(*treeAgg)
	defer treeAggs.Put(a)
	for qi, root := range res.Plan.Roots {
		a.reset(res.Plan.IDBound())
		a.visit(root)

		avgWidth := 0.0
		if a.nodes > 0 {
			avgWidth = a.widthSum / float64(a.nodes)
		}
		queryHash := uint64(0)
		if res.Logical != nil && qi < len(res.Logical.Roots) {
			sub := res.Logical.Roots[qi]
			queryHash = sub.Fingerprint()
		}
		dst = append(dst, ViewRow{
			JobID:             job.ID,
			TemplateID:        job.Template.ID,
			NormalizedJobName: job.Template.Name,
			Date:              job.Date,
			QueryIndex:        qi,
			QueryTemplate:     queryHash,
			RuleSignature:     res.Signature,
			EstimatedCost:     res.EstCost,
			EstimatedCard:     a.estCard,
			AvgRowLength:      avgWidth,
			RowCount:          root.EstRows,
			Latency:           m.LatencySec,
			PNHours:           m.PNHours,
			Vertices:          m.Vertices,
			BytesRead:         a.bytesRead,
			MaxMemory:         m.MaxMemory,
			AvgMemory:         m.AvgMemory,
			DataRead:          m.DataRead,
			DataWritten:       m.DataWritten,
			Tokens:            job.Tokens,
		})
	}
	return dst
}

// treeAgg accumulates one query tree's aggregates. seen marks visited
// nodes by PhysNode.ID; it is the only thing a pooled treeAgg keeps, and
// it holds no pointer.
type treeAgg struct {
	seen                         []bool
	estCard, bytesRead, widthSum float64
	nodes                        int
}

var treeAggs = sync.Pool{New: func() any { return new(treeAgg) }}

// reset clears the aggregates and the marks for a plan of IDs below bound.
func (a *treeAgg) reset(bound int) {
	if cap(a.seen) < bound {
		a.seen = make([]bool, bound)
	}
	a.seen = a.seen[:bound]
	clear(a.seen)
	a.estCard, a.bytesRead, a.widthSum, a.nodes = 0, 0, 0, 0
}

// visit adds n and then, in order, its unvisited inputs' subtrees.
func (a *treeAgg) visit(n *optimizer.PhysNode) {
	if a.seen[n.ID] {
		return
	}
	a.seen[n.ID] = true
	a.estCard += n.EstRows
	a.widthSum += float64(n.RowWidth)
	a.nodes++
	switch n.Op {
	case optimizer.PhysRowScan, optimizer.PhysColumnScan, optimizer.PhysIndexSeek:
		w := float64(n.BaseWidth)
		if w == 0 {
			w = float64(n.RowWidth)
		}
		a.bytesRead += n.EstRows * w
	}
	for _, in := range n.Inputs {
		a.visit(in)
	}
}

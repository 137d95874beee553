package workload

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/span"
)

// viewRowsRef keeps the view-row builder as it was before the rows were
// appended in pooled scratch — a map of visited nodes and a recursive
// closure per root, a new slice per job — as the reference AppendViewRows
// is held to.
func viewRowsRef(job *Job, res *optimizer.Result, m exec.Metrics) []ViewRow {
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

// viewRowDiff names the first field in which got differs from want,
// comparing floats by their bits; "" when the rows are identical.
func viewRowDiff(got, want ViewRow) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		same := false
		if gf.Kind() == reflect.Float64 {
			same = math.Float64bits(gf.Float()) == math.Float64bits(wf.Float())
		} else {
			same = reflect.DeepEqual(gf.Interface(), wf.Interface())
		}
		if !same {
			return fmt.Sprintf("%s: got %v, want %v", g.Type().Field(i).Name, gf.Interface(), wf.Interface())
		}
	}
	return ""
}

// sharesSubtree reports whether two roots of plan reach a common node.
func sharesSubtree(plan *optimizer.Plan) bool {
	owner := make([]int, plan.IDBound())
	var mark func(n *optimizer.PhysNode, root int) bool
	mark = func(n *optimizer.PhysNode, root int) bool {
		switch owner[n.ID] {
		case root:
			return false
		case 0:
			owner[n.ID] = root
		default:
			return true
		}
		for _, in := range n.Inputs {
			if mark(in, root) {
				return true
			}
		}
		return false
	}
	for i, r := range plan.Roots {
		if mark(r, i+1) {
			return true
		}
	}
	return false
}

// TestAppendViewRowsMatchesReference: on every ledger template, under the
// default configuration and under each single flip of its span,
// AppendViewRows appends exactly the rows viewRowsRef builds — field for
// field, floats bit for bit — behind whatever dst already held. The sample
// must include a plan whose roots share a subtree, where a node is counted
// once per tree that reaches it.
func TestAppendViewRowsMatchesReference(t *testing.T) {
	templates := 222
	if raceEnabled {
		templates = 24
	}
	// The ledger population, seeded as cmd/qobench's pipeline_day is.
	gen, err := New(Config{Seed: 20211101, NumTemplates: templates})
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	cluster := exec.DefaultCluster(3)
	var dst []ViewRow
	plans, shared := 0, 0
	for _, tpl := range gen.Templates() {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := job.CompileOptions(cat)
		configs := []rules.Config{cat.DefaultConfig()}
		if sp, err := span.Compute(job.Graph, cat, opts); err == nil {
			for _, b := range sp.Span.Bits() {
				configs = append(configs, cat.DefaultConfig().WithFlip(cat.FlipFor(b)))
			}
		}
		for _, cfg := range configs {
			res, err := optimizer.Optimize(job.Graph, cfg, opts)
			if err != nil {
				continue
			}
			m := exec.Run(res.Plan, job.Truth, job.Stats, cluster, int64(plans))
			want := viewRowsRef(job, res, m)
			prefix := len(dst)
			dst = AppendViewRows(dst, job, res, m)
			got := dst[prefix:]
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d rows appended, want %d", tpl.ID, cfg, len(got), len(want))
			}
			for i := range want {
				if d := viewRowDiff(got[i], want[i]); d != "" {
					t.Fatalf("%s %v row %d differs from the reference: %s", tpl.ID, cfg, i, d)
				}
			}
			plans++
			if sharesSubtree(res.Plan) {
				shared++
			}
			if len(dst) > 256 {
				dst = dst[:0] // keep the prefix check without growing forever
			}
		}
	}
	t.Logf("%d plans of %d templates, %d with roots sharing a subtree", plans, templates, shared)
	if shared == 0 {
		t.Error("no plan in the sample has roots sharing a subtree")
	}
}

// appendViewRowsAllocCeiling is TestAppendViewRowsAllocBudget's: the marks
// are pooled, so appending into a dst with room allocates nothing.
const appendViewRowsAllocCeiling = 0

// TestAppendViewRowsAllocBudget: once its pooled marks have grown,
// AppendViewRows into a dst with room for the rows allocates nothing.
func TestAppendViewRowsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	gen := newGen(t, 12)
	cat := rules.NewCatalog()
	cluster := exec.DefaultCluster(3)
	type run struct {
		job *Job
		res *optimizer.Result
		m   exec.Metrics
	}
	var runs []run
	roots := 0
	for _, tpl := range gen.Templates() {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(job.Graph, cat.DefaultConfig(), job.CompileOptions(cat))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{job, res, exec.Run(res.Plan, job.Truth, job.Stats, cluster, 1)})
		roots += len(res.Plan.Roots)
	}
	dst := make([]ViewRow, 0, roots)
	got := testing.AllocsPerRun(20, func() {
		dst = dst[:0]
		for _, r := range runs {
			dst = AppendViewRows(dst, r.job, r.res, r.m)
		}
	})
	t.Logf("%d jobs, %d rows: %.1f allocs per pass", len(runs), len(dst), got)
	if got > appendViewRowsAllocCeiling {
		t.Errorf("%.1f allocs appending %d jobs' view rows, ceiling %d", got, len(runs), appendViewRowsAllocCeiling)
	}
}

package optimizer

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// This file keeps the needed-columns analysis as it was while a column
// set was a map[string]bool and a join's sides were three maps built per
// call: the reference CheckNeededColumns holds the bit-row analysis (and
// onLeft / rightOrig under it) to.

// joinSidesRef classifies the merged output columns of a join node.
func joinSidesRef(j *scope.Node) (left map[string]bool, rightMergedToOrig map[string]string) {
	left = make(map[string]bool)
	for _, c := range j.Inputs[0].Cols {
		left[c.Name] = true
	}
	rightMergedToOrig = make(map[string]string)
	rightOrig := make(map[string]bool)
	for _, c := range j.Inputs[1].Cols {
		rightOrig[c.Name] = true
	}
	for _, c := range j.Cols {
		if left[c.Name] {
			continue
		}
		orig := c.Name
		if j.RightRenames != nil {
			if o, ok := j.RightRenames[c.Name]; ok {
				orig = o
			}
		}
		if rightOrig[orig] {
			rightMergedToOrig[c.Name] = orig
		}
	}
	return left, rightMergedToOrig
}

// neededColumnsRef computes, for every node, the set of its output columns
// required by its consumers (all columns for roots). nodes is the DAG in
// topological order.
func neededColumnsRef(g *scope.Graph, nodes []*scope.Node) map[*scope.Node]map[string]bool {
	needed := make(map[*scope.Node]map[string]bool, len(nodes))
	addAll := func(n *scope.Node) {
		m := needed[n]
		if m == nil {
			m = make(map[string]bool)
			needed[n] = m
		}
		for _, c := range n.Cols {
			m[c.Name] = true
		}
	}
	add := func(n *scope.Node, name string) {
		m := needed[n]
		if m == nil {
			m = make(map[string]bool)
			needed[n] = m
		}
		m[name] = true
	}
	for _, r := range g.Roots {
		addAll(r)
	}
	// Reverse topological order: consumers before producers.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		out := needed[n]
		if out == nil {
			out = make(map[string]bool)
			needed[n] = out
		}
		switch n.Kind {
		case scope.OpFilter:
			in := n.Inputs[0]
			for name := range out {
				add(in, name)
			}
			for name := range scope.RefNames(n.Pred) {
				add(in, name)
			}
		case scope.OpProject:
			in := n.Inputs[0]
			for _, p := range n.Projs {
				if out[p.Name] {
					for name := range scope.RefNames(p.E) {
						add(in, name)
					}
				}
			}
		case scope.OpJoin:
			left, rightMap := joinSidesRef(n)
			l, rr := n.Inputs[0], n.Inputs[1]
			propagate := func(name string) {
				if left[name] {
					add(l, name)
				} else if orig, ok := rightMap[name]; ok {
					add(rr, orig)
				} else {
					// Unrenamed right column.
					add(rr, name)
				}
			}
			for name := range out {
				propagate(name)
			}
			for name := range scope.RefNames(n.JoinCond) {
				propagate(name)
			}
		case scope.OpAgg:
			in := n.Inputs[0]
			if n.Partial {
				for name := range out {
					add(in, name)
				}
			}
			for _, g := range n.GroupBy {
				add(in, g.Name)
			}
			for _, a := range n.Aggs {
				if a.Arg != nil {
					for name := range scope.RefNames(a.Arg) {
						add(in, name)
					}
				}
			}
		case scope.OpDistinct:
			addAll(n.Inputs[0])
		case scope.OpUnion:
			for _, in := range n.Inputs {
				for pos, c := range n.Cols {
					if out[c.Name] && pos < len(in.Cols) {
						add(in, in.Cols[pos].Name)
					}
				}
			}
		case scope.OpSort, scope.OpTop:
			in := n.Inputs[0]
			for name := range out {
				add(in, name)
			}
			for _, k := range n.SortKeys {
				add(in, k.Col.Name)
			}
		case scope.OpReduce, scope.OpProcess, scope.OpOutput:
			if len(n.Inputs) > 0 {
				addAll(n.Inputs[0])
			}
		}
	}
	return needed
}

// CheckNeededColumns rewrites a clone of g under cfg the way a compilation
// does and, at both points where the rewriter analyses needed columns —
// before semi-join reduction and before column pruning — compares the
// analysis with the reference, node by node. It returns the number of node
// sets compared and a line per difference. A nil cat is the canonical
// catalog.
func CheckNeededColumns(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, stats StatsProvider) (compared int, diffs []string) {
	if cat == nil {
		cat = canonicalCatalog()
	}
	var sig rules.Signature
	rw := &rewriter{
		ruleTable: ruleTable{cat: cat, cfg: cfg, sig: &sig},
		g:         g.Clone(), stats: stats, env: &EstimationEnv{Stats: stats},
	}
	check := func(when string) {
		rw.refresh()
		rw.neededColumns()
		ref := neededColumnsRef(rw.g, rw.nodes)
		for _, n := range rw.nodes {
			var got, want []string
			for b, name := range rw.needed.names {
				if rw.needed.holds(n.ID, b) {
					got = append(got, name)
				}
			}
			for name := range ref[n] {
				want = append(want, name)
			}
			slices.Sort(got)
			slices.Sort(want)
			compared++
			if !slices.Equal(got, want) {
				diffs = append(diffs, fmt.Sprintf("%s: node #%d %s needs {%s}, reference {%s}",
					when, n.ID, n.Kind, strings.Join(got, ","), strings.Join(want, ",")))
			}
		}
	}
	rw.fixpoint()
	check("before semi-join reduction")
	rw.trySemiJoinReduction()
	check("before column pruning")
	return compared, diffs
}

// TestColSetsWiden: sets keep their members, row by row, while the name
// table grows through two widenings of the matrix.
func TestColSetsWiden(t *testing.T) {
	const rows, names = 5, 200
	var s colSets
	s.reset(rows)
	want := make([]map[string]bool, rows)
	for r := range want {
		want[r] = map[string]bool{}
	}
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("c%d", i)
		for r := 0; r < rows; r++ {
			if i%(r+2) == 0 {
				s.add(r, name)
				want[r][name] = true
			}
		}
	}
	if s.words != 4 {
		t.Fatalf("stride = %d words after %d names, want 4", s.words, names)
	}
	s.union(0, 4)
	for name := range want[4] {
		want[0][name] = true
	}
	for r := 0; r < rows; r++ {
		got := 0
		for b, name := range s.names {
			if !s.holds(r, b) {
				continue
			}
			got++
			if !want[r][name] || !s.has(r, name) {
				t.Errorf("row %d holds %q, which was not added (or has denies it)", r, name)
			}
		}
		if got != len(want[r]) {
			t.Errorf("row %d holds %d names, want %d", r, got, len(want[r]))
		}
	}
	if s.has(1, "never") {
		t.Error("has reports a name no set holds")
	}
	// A reset matrix is empty again, whatever the last analysis left.
	s.reset(rows)
	if s.words != 1 || s.has(0, "c0") {
		t.Error("reset left names or a wide stride behind")
	}
	s.add(0, "x")
	if !s.has(0, "x") || s.has(1, "x") {
		t.Error("a reset matrix does not start empty")
	}
}

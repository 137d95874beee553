package scope

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qoadvisor/internal/budget"
)

// renderDAG renders g's reachable nodes with every field a rewrite writes
// or a working copy owns: ID, kind, input IDs, Projs, Pred and Cols, then
// the roots and the ID bound.
func renderDAG(g *Graph) string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		fmt.Fprintf(&sb, "#%d %s in[", n.ID, n.Kind)
		for _, in := range n.Inputs {
			fmt.Fprintf(&sb, "%d ", in.ID)
		}
		sb.WriteString("] projs[")
		for _, p := range n.Projs {
			fmt.Fprintf(&sb, "%s=%s ", p.Name, p.E)
		}
		fmt.Fprintf(&sb, "] pred=%v cols[", n.Pred)
		for _, c := range n.Cols {
			fmt.Fprintf(&sb, "%s:%s ", c.Name, c.Type)
		}
		sb.WriteString("]\n")
	}
	sb.WriteString("roots")
	for _, r := range g.Roots {
		fmt.Fprintf(&sb, " #%d", r.ID)
	}
	fmt.Fprintf(&sb, " bound %d\n", g.IDBound())
	return sb.String()
}

// rewriteInPlace makes the edits a rewrite makes on its working copy wc:
// new nodes spliced under a join and above a root, a projection renamed
// and re-expressed in place, a root rewired, a chunk's worth of nodes left
// disconnected. It
// returns wc's Clone, which is what a rewrite keeps.
func rewriteInPlace(wc *Graph) *Graph {
	for _, n := range wc.Nodes() {
		switch n.Kind {
		case OpJoin:
			for i, in := range n.Inputs {
				f := wc.NewNode(OpFilter, in)
				f.Pred = &BinaryExpr{Op: ">", Left: &ColRef{Name: "k"}, Right: &IntLit{Value: int64(i)}}
				f.Cols = in.Cols
				n.Inputs[i] = f
			}
		case OpProject:
			n.Projs[0].Name += "_r"
			n.Projs[len(n.Projs)-1].E = &ColRef{Name: "k"}
		}
	}
	for i := 0; i < scratchChunk; i++ {
		wc.NewNode(OpDistinct, wc.Roots[0]) // reached by nothing; fills a chunk
	}
	top := wc.NewNode(OpTop, wc.Roots[1].Inputs[0])
	top.TopN, top.Cols = 5, wc.Roots[1].Cols
	wc.Roots[1].Inputs[0] = top
	wc.Roots[0], wc.Roots[1] = wc.Roots[1], wc.Roots[0]
	return wc.Clone()
}

// TestScratchWorkingCopyMatchesHeap: a working copy in a Scratch — its
// Clone, the nodes its NewNode makes, the writes in place, the compacting
// Clone and the Reset — comes out as the same steps on a heap Clone, round
// after round on one Scratch. The compacted graph shares no node, Inputs
// or Projs with the scratch and outlives its Reset unchanged, the working
// copy's nodes do lie in the scratch, the source graph is untouched, and
// a Reset scratch points at nothing.
func TestScratchWorkingCopyMatchesHeap(t *testing.T) {
	g := mustCompile(t, `
a = EXTRACT k:int, v:int FROM "a.tsv";
b = EXTRACT k:int, w:int FROM "b.tsv";
p = SELECT k, v + 1 AS v1, v * 2 AS v2 FROM a;
q = SELECT k, w - 1 AS w1 FROM b;
j = SELECT p.k, v1, w1 FROM p JOIN q ON p.k == q.k;
u = p UNION ALL p;
OUTPUT j TO "j.tsv";
OUTPUT u TO "u.tsv";`)
	source := renderDAG(g)
	want := renderDAG(rewriteInPlace(g.Clone()))
	if want == source {
		t.Fatal("the edits changed nothing")
	}
	var s Scratch
	var kept []*Graph
	for round := 0; round < 3; round++ {
		wc := s.Clone(g)
		if !s.holdsNode(wc.Roots[0]) {
			t.Fatalf("round %d: the working copy's root is not in the scratch", round)
		}
		got := rewriteInPlace(wc)
		if r := renderDAG(got); r != want {
			t.Fatalf("round %d: scratch rewrite\n%s\nheap rewrite\n%s", round, r, want)
		}
		if top := wc.Roots[0].Inputs[0]; top.Kind != OpTop || !s.holdsNode(top) || !within(top.Inputs, s.ptrs) {
			t.Fatalf("round %d: the node NewNode made, or its Inputs, is not in the scratch", round)
		}
		for _, n := range got.Nodes() {
			if s.holdsNode(n) || within(n.Inputs, s.ptrs) || within(n.Projs, s.projs) {
				t.Fatalf("round %d: node #%d of the compacted graph, or its Inputs or Projs, lies in the scratch", round, n.ID)
			}
		}
		if within(got.Roots, s.ptrs) {
			t.Fatalf("round %d: the compacted graph's Roots lie in the scratch", round)
		}
		s.Reset()
		if pins := s.pins(); pins != "" {
			t.Fatalf("round %d: a Reset scratch holds %s", round, pins)
		}
		kept = append(kept, got)
	}
	for i, k := range kept {
		if r := renderDAG(k); r != want {
			t.Errorf("round %d's compacted graph changed as the scratch was reused:\n%s", i, r)
		}
	}
	if r := renderDAG(g); r != source {
		t.Errorf("the source graph changed:\n%s\nwas\n%s", r, source)
	}
}

// holdsNode reports whether n is one of s's nodes.
func (s *Scratch) holdsNode(n *Node) bool {
	for _, c := range s.chunks {
		for i := range c {
			if n == &c[i] {
				return true
			}
		}
	}
	return false
}

// within reports whether an element of ps lies in the array behind all,
// up to its capacity.
func within[T any](ps, all []T) bool {
	all = all[:cap(all)]
	for i := range ps {
		for j := range all {
			if &ps[i] == &all[j] {
				return true
			}
		}
	}
	return false
}

// pins names what s still points at, or returns "".
func (s *Scratch) pins() string {
	var pins []string
	if !reflect.ValueOf(&s.g).Elem().IsZero() {
		pins = append(pins, "its working copy")
	}
	for _, c := range s.chunks {
		for i := range c {
			if !reflect.ValueOf(&c[i]).Elem().IsZero() {
				pins = append(pins, fmt.Sprintf("node #%d", c[i].ID))
			}
		}
	}
	for _, p := range s.ptrs[:cap(s.ptrs)] {
		if p != nil {
			pins = append(pins, "a node pointer")
		}
	}
	for _, p := range s.projs[:cap(s.projs)] {
		if p != (NamedExpr{}) {
			pins = append(pins, "a projection")
		}
	}
	return strings.Join(pins, ", ")
}

// TestStoreCopiesStandApart: copies a Store keeps, made from several
// goroutines at once into chunks that start at the room counted for one
// and then fill and skip their tails, each render as a heap Clone does, and
// each owns its nodes, Inputs, Roots and Projs: appending to a copy's
// slices writes over no other copy, and writing through them changes no
// other copy or the source. A nil Store clones onto the heap.
func TestStoreCopiesStandApart(t *testing.T) {
	src := `
a = EXTRACT k:int, v:int FROM "a.tsv";
p = SELECT k, v + 1 AS v1, v * 2 AS v2 FROM a;
j = SELECT p.k, v1 FROM p JOIN a ON p.k == a.k;
OUTPUT j TO "j.tsv";
OUTPUT p TO "p.tsv";`
	p, err := Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	g := mustCompile(t, src)
	want := renderDAG(g)
	var slabs Slabs
	slabs.Reserve(p)
	s := NewStore(&slabs)
	const workers, each = 4, 10
	copies := make([]*Graph, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				copies[i] = s.Clone(g)
			}
		}(w)
	}
	wg.Wait()
	source := map[int]*Node{}
	for _, n := range g.Nodes() {
		source[n.ID] = n
	}
	nodes := make([][]*Node, len(copies))
	for i, c := range copies {
		if r := renderDAG(c); r != want {
			t.Fatalf("copy %d renders\n%s\nwant\n%s", i, r, want)
		}
		nodes[i] = c.Nodes()
	}
	for i, c := range copies {
		for _, n := range nodes[i] {
			n.Inputs = append(n.Inputs, n)
			if n.Projs != nil {
				n.Projs[0].Name += "_w"
				n.Projs = append(n.Projs, NamedExpr{Name: "x"})
			}
		}
		c.Roots = append(c.Roots, c.Roots[0])
	}
	for i, c := range copies {
		for _, n := range nodes[i] {
			in, sn := n.Inputs, source[n.ID]
			if len(in) != len(sn.Inputs)+1 || in[len(in)-1] != n {
				t.Fatalf("copy %d: another copy's writes reached node #%d's Inputs", i, n.ID)
			}
			for k, x := range in[:len(in)-1] {
				if x.ID != sn.Inputs[k].ID {
					t.Fatalf("copy %d: another copy's writes reached node #%d's Inputs", i, n.ID)
				}
			}
			if sn.Projs != nil && (len(n.Projs) != len(sn.Projs)+1 || n.Projs[len(n.Projs)-1].Name != "x" || n.Projs[0].Name != sn.Projs[0].Name+"_w") {
				t.Fatalf("copy %d: another copy's writes reached node #%d's Projs: %v", i, n.ID, n.Projs)
			}
		}
		if len(c.Roots) != len(g.Roots)+1 || c.Roots[len(c.Roots)-1] != c.Roots[0] {
			t.Fatalf("copy %d: another copy's writes reached its Roots", i)
		}
	}
	if r := renderDAG(g); r != want {
		t.Errorf("the source changed:\n%s", r)
	}
	var none *Store
	if c := none.Clone(g); renderDAG(c) != want {
		t.Errorf("a nil Store's copy renders\n%s", renderDAG(c))
	}
}

// TestStoreChunkAllocs pins how a Store grows: sized for n bindings, it
// takes its first chunk of each kind with the first copy, holds n copies
// there, storeCopies more in one later chunk of each kind, and a copy
// past those in a chunk of each kind twice as long: each step is four
// allocations, one per kind, and the copy loop itself allocates nothing.
// Its column lists and predicate nodes grow the same way: sized for n
// bindings of a script with one two-column scan, its first chunk of
// columns holds half the n scans' columns and its first chunk of predicate
// nodes one per two scans, each taken with its kind's first cut; past them
// a chunk of storeCopies average bindings' room, then one twice as long.
// A cut itself allocates nothing, and a nil Store allocates each cut.
func TestStoreChunkAllocs(t *testing.T) {
	budget.SkipRace(t)
	const n = 8
	src := `
a = EXTRACT k:int, v:int FROM "a.tsv";
p = SELECT k, v + 1 AS v1 FROM a;
OUTPUT p TO "p.tsv";`
	p, err := Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	g := mustCompile(t, src)
	for _, c := range []struct{ copies, chunks int }{
		{1, 4}, {n, 4}, {n + 1, 8}, {n + storeCopies, 8}, {n + storeCopies + 1, 12}, {n + 3*storeCopies, 12},
	} {
		var slabs Slabs
		for range n {
			slabs.Reserve(p)
		}
		allocs := testing.AllocsPerRun(10, func() {
			s := NewStore(&slabs)
			for range c.copies {
				s.Clone(g)
			}
		})
		if want := float64(1 + c.chunks); allocs != want {
			t.Errorf("%d copies into a store sized for %d: %v allocations, want the store and %d chunks", c.copies, n, allocs, c.chunks)
		}
	}

	p, err = Prepare(`
a = EXTRACT k:int, v:int FROM "a.tsv";
OUTPUT a TO "a.tsv";`)
	if err != nil {
		t.Fatal(err)
	}
	var slabs Slabs
	for range n {
		slabs.Reserve(p)
	}
	// Columns(2) into chunks of 8, 4, 8 and 16 columns; Binary into chunks
	// of 4, 4 and 8 nodes.
	for _, c := range []struct{ colCuts, colChunks, binCuts, binChunks int }{
		{1, 1, 1, 1}, {4, 1, 4, 1}, {5, 2, 5, 2}, {6, 2, 8, 2}, {7, 3, 9, 3}, {10, 3, 16, 3}, {11, 4, 17, 4},
	} {
		var cols []Column
		var pred *BinaryExpr
		allocs := testing.AllocsPerRun(10, func() {
			s := NewStore(&slabs)
			for range c.colCuts {
				cols = s.Columns(2)
			}
			for range c.binCuts {
				pred = s.Binary(BinaryExpr{Op: "AND"})
			}
		})
		if want := float64(1 + c.colChunks + c.binChunks); allocs != want {
			t.Errorf("%d column cuts and %d predicate cuts into a store sized for %d: %v allocations, want the store, %d column chunks and %d predicate chunks", c.colCuts, c.binCuts, n, allocs, c.colChunks, c.binChunks)
		}
		if len(cols) != 2 || cap(cols) != 2 || pred.Op != "AND" {
			t.Errorf("cut %d columns of capacity %d and predicate %q, want 2, 2 and AND", len(cols), cap(cols), pred.Op)
		}
	}
	var none *Store
	if allocs := testing.AllocsPerRun(10, func() {
		none.Columns(3)
		none.Binary(BinaryExpr{Op: "AND"})
	}); allocs != 2 {
		t.Errorf("a nil Store's column list and predicate: %v allocations, want one each", allocs)
	}
}

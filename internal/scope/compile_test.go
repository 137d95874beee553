package scope

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func mustCompile(t *testing.T, src string) *Graph {
	t.Helper()
	g, err := CompileScript(src)
	if err != nil {
		t.Fatalf("CompileScript: %v", err)
	}
	return g
}

func TestCompileSample(t *testing.T) {
	g := mustCompile(t, sampleScript)
	if len(g.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(g.Roots))
	}
	root := g.Roots[0]
	if root.Kind != OpOutput {
		t.Fatalf("root kind = %v", root.Kind)
	}
	// Expected chain: Output <- Top <- Filter(having) <- Agg <- Join ...
	kinds := map[OpKind]int{}
	for _, n := range g.Nodes() {
		kinds[n.Kind]++
	}
	if kinds[OpScan] != 2 {
		t.Errorf("scans = %d, want 2", kinds[OpScan])
	}
	if kinds[OpJoin] != 1 {
		t.Errorf("joins = %d, want 1", kinds[OpJoin])
	}
	if kinds[OpAgg] != 1 {
		t.Errorf("aggs = %d, want 1", kinds[OpAgg])
	}
	if kinds[OpTop] != 1 {
		t.Errorf("tops = %d, want 1", kinds[OpTop])
	}
	// HAVING plus WHERE both lower to filters.
	if kinds[OpFilter] != 2 {
		t.Errorf("filters = %d, want 2", kinds[OpFilter])
	}
}

func TestCompileSchemaPropagation(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT a:int, b:string FROM "in.tsv";
x = SELECT a FROM t WHERE b == "v";
OUTPUT x TO "o.tsv";`)
	root := g.Roots[0]
	if len(root.Cols) != 1 || root.Cols[0].Name != "a" || root.Cols[0].Type != TypeInt {
		t.Errorf("output cols = %+v", root.Cols)
	}
	// Scan column carries its base-table source identity.
	var scan *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpScan {
			scan = n
		}
	}
	if scan.Cols[0].Source != "in.tsv:a" {
		t.Errorf("scan source = %q", scan.Cols[0].Source)
	}
	if root.Cols[0].Source != "in.tsv:a" {
		t.Errorf("projected column should keep source, got %q", root.Cols[0].Source)
	}
}

func TestCompileSharedRowsetIsDAG(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT a:int, b:int FROM "in.tsv";
x = SELECT a FROM t WHERE a > 1;
y = SELECT b FROM t WHERE b > 2;
OUTPUT x TO "x.tsv";
OUTPUT y TO "y.tsv";`)
	if len(g.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(g.Roots))
	}
	scans := 0
	for _, n := range g.Nodes() {
		if n.Kind == OpScan {
			scans++
		}
	}
	if scans != 1 {
		t.Errorf("shared extract should compile to a single scan node, got %d", scans)
	}
}

func TestCompileJoinColumnCollision(t *testing.T) {
	g := mustCompile(t, `
l = EXTRACT id:long, v:int FROM "l.tsv";
r = EXTRACT id:long, w:int FROM "r.tsv";
j = SELECT l.id, l.v, r.w FROM l AS l JOIN r AS r ON l.id == r.id;
OUTPUT j TO "o.tsv";`)
	var join *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpJoin {
			join = n
		}
	}
	if join == nil {
		t.Fatal("no join node")
	}
	// Right side's "id" collides; it must be renamed in the join schema.
	seen := map[string]bool{}
	for _, c := range join.Cols {
		if seen[c.Name] {
			t.Fatalf("duplicate column %q in join schema %v", c.Name, join.Cols)
		}
		seen[c.Name] = true
	}
	if !seen["r_id"] {
		t.Errorf("expected renamed column r_id in %v", join.Cols)
	}
	// The join condition references the merged name.
	if !strings.Contains(join.JoinCond.String(), "r_id") {
		t.Errorf("join condition should use merged name: %s", join.JoinCond)
	}
}

func TestCompileSemiJoinSchema(t *testing.T) {
	g := mustCompile(t, `
l = EXTRACT a:int FROM "l.tsv";
r = EXTRACT b:int FROM "r.tsv";
j = SELECT a FROM l SEMI JOIN r ON a == b;
OUTPUT j TO "o.tsv";`)
	var join *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpJoin {
			join = n
		}
	}
	if join.JoinType != JoinSemi {
		t.Fatalf("join type = %v", join.JoinType)
	}
	if len(join.Cols) != 1 || join.Cols[0].Name != "a" {
		t.Errorf("semi join should keep only left columns: %v", join.Cols)
	}
}

func TestCompileAggregation(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT k:int, v:double FROM "t.tsv";
a = SELECT k, SUM(v) AS total, COUNT(*) AS cnt FROM t GROUP BY k;
OUTPUT a TO "o.tsv";`)
	var agg *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpAgg {
			agg = n
		}
	}
	if agg == nil {
		t.Fatal("no agg node")
	}
	if len(agg.GroupBy) != 1 || agg.GroupBy[0].Name != "k" {
		t.Errorf("group by = %+v", agg.GroupBy)
	}
	if len(agg.Aggs) != 2 {
		t.Fatalf("aggs = %+v", agg.Aggs)
	}
	if agg.Aggs[0].Name != "total" || agg.Aggs[0].Func != "SUM" {
		t.Errorf("agg 0 = %+v", agg.Aggs[0])
	}
	if agg.Aggs[1].Name != "cnt" || !agg.Aggs[1].Star {
		t.Errorf("agg 1 = %+v", agg.Aggs[1])
	}
	// SUM(double) -> double; COUNT -> long.
	if c, _ := agg.FindCol("total"); c.Type != TypeDouble {
		t.Errorf("total type = %v", c.Type)
	}
	if c, _ := agg.FindCol("cnt"); c.Type != TypeLong {
		t.Errorf("cnt type = %v", c.Type)
	}
}

func TestCompileAggDedupsIdenticalAggregates(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT k:int, v:int FROM "t.tsv";
a = SELECT k, COUNT(*) AS c1 FROM t GROUP BY k HAVING COUNT(*) > 5;
OUTPUT a TO "o.tsv";`)
	var agg *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpAgg {
			agg = n
		}
	}
	if len(agg.Aggs) != 1 {
		t.Errorf("identical COUNT(*) in items and HAVING should share a spec: %+v", agg.Aggs)
	}
}

func TestCompileNonGroupedColumnRejected(t *testing.T) {
	_, err := CompileScript(`
t = EXTRACT k:int, v:int FROM "t.tsv";
a = SELECT v, COUNT(*) AS c FROM t GROUP BY k;
OUTPUT a TO "o.tsv";`)
	if err == nil {
		t.Fatal("expected error for non-grouped column in projection")
	}
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("error = %v", err)
	}
}

func TestCompileGlobalAggregateWithoutGroupBy(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT v:int FROM "t.tsv";
a = SELECT COUNT(*) AS c, SUM(v) AS s FROM t;
OUTPUT a TO "o.tsv";`)
	var agg *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpAgg {
			agg = n
		}
	}
	if agg == nil || len(agg.GroupBy) != 0 || len(agg.Aggs) != 2 {
		t.Errorf("global agg = %+v", agg)
	}
}

func TestCompileDistinct(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT a:int FROM "t.tsv";
d = SELECT DISTINCT a FROM t;
OUTPUT d TO "o.tsv";`)
	found := false
	for _, n := range g.Nodes() {
		if n.Kind == OpDistinct {
			found = true
		}
	}
	if !found {
		t.Error("DISTINCT should lower to a Distinct node")
	}
}

func TestCompileUnionTypechecks(t *testing.T) {
	_, err := CompileScript(`
a = EXTRACT x:int FROM "a.tsv";
b = EXTRACT y:string FROM "b.tsv";
u = a UNION ALL b;
OUTPUT u TO "o.tsv";`)
	if err == nil {
		t.Fatal("expected type mismatch error")
	}
	g := mustCompile(t, `
a = EXTRACT x:int FROM "a.tsv";
b = EXTRACT x:int FROM "b.tsv";
u = a UNION b;
OUTPUT u TO "o.tsv";`)
	// Non-ALL union adds a distinct above the union node.
	kinds := map[OpKind]int{}
	for _, n := range g.Nodes() {
		kinds[n.Kind]++
	}
	if kinds[OpUnion] != 1 || kinds[OpDistinct] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestCompileReduceAndProcess(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT k:int, payload:string FROM "t.tsv";
r = REDUCE t ON k USING Sessionize PRODUCE k:int, sess:long;
p = PROCESS r USING Enrich PRODUCE k:int, sess:long, extra:double;
OUTPUT p TO "o.tsv";`)
	var reduce, process *Node
	for _, n := range g.Nodes() {
		switch n.Kind {
		case OpReduce:
			reduce = n
		case OpProcess:
			process = n
		}
	}
	if reduce == nil || reduce.UserOp != "Sessionize" || len(reduce.GroupBy) != 1 {
		t.Errorf("reduce = %+v", reduce)
	}
	if process == nil || process.UserOp != "Enrich" || len(process.Cols) != 3 {
		t.Errorf("process = %+v", process)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, wantSubstr string
	}{
		{`x = SELECT a FROM nosuch; OUTPUT x TO "o";`, "unknown rowset"},
		{`t = EXTRACT a:int FROM "f"; t = EXTRACT b:int FROM "g"; OUTPUT t TO "o";`, "redefined"},
		{`t = EXTRACT a:int FROM "f"; x = SELECT nocol FROM t; OUTPUT x TO "o";`, "unknown column"},
		{`t = EXTRACT a:int, a:int FROM "f"; OUTPUT t TO "o";`, "duplicate column"},
		{`t = EXTRACT a:int FROM "f"; x = SELECT a AS z, a AS z FROM t; OUTPUT x TO "o";`, "duplicate output column"},
		{`t = EXTRACT a:int FROM "f"; x = SELECT a FROM t WHERE SUM(a) > 1; OUTPUT x TO "o";`, "WHERE"},
		{`t = EXTRACT a:int FROM "f"; x = SELECT a FROM t HAVING a > 1; OUTPUT x TO "o";`, "HAVING"},
		{`t = EXTRACT a:int FROM "f"; x = SELECT a FROM t ORDER BY nocol; OUTPUT x TO "o";`, "ORDER BY"},
		{`t = EXTRACT a:int FROM "f"; x = SELECT * FROM t GROUP BY a; OUTPUT x TO "o";`, "SELECT *"},
		{`t = EXTRACT a:int FROM "f"; r = REDUCE t ON nocol USING R PRODUCE a:int; OUTPUT r TO "o";`, "not found"},
		{`t = EXTRACT a:int FROM "f";`, "no OUTPUT"},
		{`t = EXTRACT a:int FROM "f"; u = t UNION t; x = SELECT a FROM t JOIN t AS t2 ON a == a; OUTPUT x TO "o";`, "ambiguous"},
		// A semi join's right side is visible to its ON clause only.
		{`l = EXTRACT a:int FROM "l"; s = EXTRACT c:int FROM "s"; x = SELECT a FROM l SEMI JOIN s ON a == c WHERE c > 1; OUTPUT x TO "o";`, `unknown column "c"`},
		{`l = EXTRACT a:int FROM "l"; s = EXTRACT c:int FROM "s"; x = SELECT a, c FROM l SEMI JOIN s ON a == c; OUTPUT x TO "o";`, `unknown column "c"`},
	}
	for _, c := range cases {
		_, err := CompileScript(c.src)
		var ce *CompileError
		if !errors.As(err, &ce) {
			t.Errorf("CompileScript(%q) = %v, want a *CompileError", c.src, err)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSubstr) {
			t.Errorf("CompileScript(%q) error = %v, want substring %q", c.src, err, c.wantSubstr)
		}
	}
}

func TestCompileSelfJoinWithAliases(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT id:long, v:int FROM "t.tsv";
j = SELECT a.id, b.v FROM t AS a JOIN t AS b ON a.id == b.id;
OUTPUT j TO "o.tsv";`)
	var join *Node
	for _, n := range g.Nodes() {
		if n.Kind == OpJoin {
			join = n
		}
	}
	if join == nil {
		t.Fatal("no join")
	}
	// Self join shares the scan node.
	if join.Inputs[0] != join.Inputs[1] {
		t.Error("self join should share the scan node")
	}
}

func TestGraphCloneIndependence(t *testing.T) {
	g := mustCompile(t, sampleScript)
	clone := g.Clone()
	if len(clone.Nodes()) != len(g.Nodes()) {
		t.Fatalf("clone nodes = %d, want %d", len(clone.Nodes()), len(g.Nodes()))
	}
	// Mutating the clone must not affect the original.
	for _, n := range clone.Nodes() {
		n.Cols = nil
	}
	for _, n := range g.Nodes() {
		if n.Kind != OpScan && len(n.Cols) == 0 && n.Kind != OpOutput {
			// Outputs and scans always have cols in sample; any zeroed col
			// in the original means Clone aliased slices.
		}
	}
	orig := g.Roots[0]
	if len(orig.Cols) == 0 {
		t.Error("Clone aliased column slices with the original")
	}
}

// TestCloneDoesNotAlias holds Clone to its copy-on-write contract. What a
// rewrite writes in place — a node's fields, its Inputs (grown or
// rewired), its Projs' expressions — reaches neither a sibling in the
// clone nor the source graph; and what it may only replace — Cols,
// GroupBy, Aggs, SortKeys, RightRenames — the clone shares with the source
// rather than copies.
func TestCloneDoesNotAlias(t *testing.T) {
	g := mustCompile(t, sampleScript)
	before := g.String()
	var projs []string
	for _, n := range g.Nodes() {
		for _, p := range n.Projs {
			projs = append(projs, p.E.String())
		}
	}
	clone := g.Clone()
	nodes := clone.Nodes()
	orig := g.Nodes()
	extra := clone.NewNode(OpScan)
	for i, n := range nodes {
		for _, s := range []struct {
			what         string
			clone, input any
		}{
			{"Cols", n.Cols, orig[i].Cols}, {"GroupBy", n.GroupBy, orig[i].GroupBy},
			{"Aggs", n.Aggs, orig[i].Aggs}, {"SortKeys", n.SortKeys, orig[i].SortKeys},
			{"RightRenames", n.RightRenames, orig[i].RightRenames},
		} {
			if reflect.ValueOf(s.clone).Pointer() != reflect.ValueOf(s.input).Pointer() {
				t.Errorf("node #%d: the clone copied %s instead of sharing it", n.ID, s.what)
			}
		}
		n.Inputs = append(n.Inputs, extra)
		for j := range n.Projs {
			n.Projs[j].E = &ColRef{Name: "rewritten"}
		}
		n.Projs = append(n.Projs, NamedExpr{Name: "appended", E: &ColRef{Name: "appended"}})
		n.Cols = append(n.Cols[:len(n.Cols):len(n.Cols)], Column{Name: "appended"})
		n.Pred, n.TablePath = &BoolLit{Value: true}, "rewritten"
	}
	for _, n := range nodes {
		if n.Inputs[len(n.Inputs)-1] != extra || n.Projs[len(n.Projs)-1].Name != "appended" {
			t.Fatalf("node #%d lost its own append", n.ID)
		}
		for _, in := range n.Inputs[:len(n.Inputs)-1] {
			if in == extra {
				t.Errorf("node #%d: a sibling's append landed in its Inputs", n.ID)
			}
		}
		for _, p := range n.Projs[:len(n.Projs)-1] {
			if p.Name == "appended" {
				t.Errorf("node #%d: a sibling's append landed in its Projs", n.ID)
			}
		}
	}
	if after := g.String(); after != before {
		t.Errorf("mutating the clone changed the source:\n%s\nwas\n%s", after, before)
	}
	var after []string
	for _, n := range g.Nodes() {
		for _, p := range n.Projs {
			after = append(after, p.E.String())
		}
		for _, c := range n.Cols {
			if c.Name == "appended" {
				t.Errorf("source node #%d sees the clone's column %q", n.ID, c.Name)
			}
		}
	}
	if !slices.Equal(after, projs) {
		t.Errorf("rewriting the clone's projections changed the source's: %v, was %v", after, projs)
	}
}

// TestCloneSlabAppendsStayOwn: a clone's nodes, their Inputs, its Roots
// and their Projs are subslices of shared slabs, so appending to one node's
// Inputs or Projs must reallocate it rather than write into the slot of
// the node beside it. Each append is checked against a rendering of every
// other node and of the roots taken just before it.
func TestCloneSlabAppendsStayOwn(t *testing.T) {
	g := mustCompile(t, `
a = EXTRACT k:int, v:int FROM "a.tsv";
b = EXTRACT k:int, w:int FROM "b.tsv";
p = SELECT k, v + 1 AS v1, v * 2 AS v2 FROM a;
q = SELECT k, w - 1 AS w1 FROM b;
j = SELECT p.k, v1, w1 FROM p JOIN q ON p.k == q.k;
u = p UNION ALL p;
OUTPUT j TO "j.tsv";
OUTPUT u TO "u.tsv";`)
	clone := g.Clone()
	nodes := clone.Nodes()
	render := func(skip *Node) string {
		var sb strings.Builder
		for _, r := range clone.Roots {
			fmt.Fprintf(&sb, "root #%d\n", r.ID)
		}
		for _, n := range nodes {
			if n == skip {
				continue
			}
			fmt.Fprintf(&sb, "#%d in[", n.ID)
			for _, in := range n.Inputs {
				fmt.Fprintf(&sb, "%p ", in)
			}
			sb.WriteString("] projs[")
			for _, p := range n.Projs {
				fmt.Fprintf(&sb, "%s=%p ", p.Name, p.E)
			}
			sb.WriteString("]\n")
		}
		return sb.String()
	}
	extra := clone.NewNode(OpScan)
	for _, n := range nodes {
		if cap(n.Inputs) != len(n.Inputs) || cap(n.Projs) != len(n.Projs) {
			t.Fatalf("node #%d: Inputs or Projs not capped at its length", n.ID)
		}
		others := render(n)
		n.Inputs = append(n.Inputs, extra)
		n.Projs = append(n.Projs, NamedExpr{Name: "appended", E: &ColRef{Name: "appended"}})
		if after := render(n); after != others {
			t.Fatalf("appending to node #%d changed another node or a root:\n%s\nwas\n%s", n.ID, after, others)
		}
	}
	if cap(clone.Roots) != len(clone.Roots) {
		t.Error("Roots not capped at its length")
	}
	for _, n := range nodes {
		if n.Inputs[len(n.Inputs)-1] != extra || n.Projs[len(n.Projs)-1].Name != "appended" {
			t.Errorf("node #%d lost its own append", n.ID)
		}
	}
}

func TestGraphClonePreservesSharing(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT a:int FROM "t.tsv";
x = SELECT a FROM t WHERE a > 1;
y = SELECT a FROM t WHERE a > 2;
OUTPUT x TO "x";
OUTPUT y TO "y";`)
	clone := g.Clone()
	scans := 0
	for _, n := range clone.Nodes() {
		if n.Kind == OpScan {
			scans++
		}
	}
	if scans != 1 {
		t.Errorf("clone should preserve node sharing, got %d scans", scans)
	}
}

func TestTemplateHashStableAcrossLiterals(t *testing.T) {
	mk := func(path, threshold string) *Graph {
		return mustCompile(t, `
t = EXTRACT a:int FROM "`+path+`";
x = SELECT a FROM t WHERE a > `+threshold+`;
OUTPUT x TO "out.tsv";`)
	}
	g1 := mk("data/2021/11/03.tsv", "100")
	g2 := mk("data/2021/11/04.tsv", "250")
	if g1.TemplateHash() != g2.TemplateHash() {
		t.Error("template hash should ignore literals and date components")
	}
	g3 := mustCompile(t, `
t = EXTRACT a:int FROM "data/2021/11/03.tsv";
x = SELECT a FROM t WHERE a < 100;
OUTPUT x TO "out.tsv";`)
	if g1.TemplateHash() == g3.TemplateHash() {
		t.Error("different predicates should produce different templates")
	}
}

func TestFingerprintDiffersAcrossShapes(t *testing.T) {
	g1 := mustCompile(t, `t = EXTRACT a:int FROM "f"; x = SELECT a FROM t WHERE a > 1; OUTPUT x TO "o";`)
	g2 := mustCompile(t, `t = EXTRACT a:int FROM "f"; x = SELECT a FROM t; OUTPUT x TO "o";`)
	if g1.Roots[0].Fingerprint() == g2.Roots[0].Fingerprint() {
		t.Error("fingerprints of different plans should differ")
	}
	// Fingerprint is deterministic.
	if g1.Roots[0].Fingerprint() != g1.Clone().Roots[0].Fingerprint() {
		t.Error("fingerprint should be stable under clone")
	}
}

func TestSiteKeys(t *testing.T) {
	g := mustCompile(t, sampleScript)
	keys := map[string]int{}
	for _, n := range g.Nodes() {
		if k := string(n.AppendSiteKey(nil)); k != "" {
			keys[k]++
		}
	}
	if len(keys) == 0 {
		t.Fatal("no site keys")
	}
	// Filter site keys embed the predicate text.
	foundFilter := false
	for k := range keys {
		if strings.HasPrefix(k, "filter:") {
			foundFilter = true
		}
	}
	if !foundFilter {
		t.Error("expected filter site keys")
	}
}

func TestGraphStringRendersAllRoots(t *testing.T) {
	g := mustCompile(t, `
t = EXTRACT a:int FROM "t.tsv";
OUTPUT t TO "a";
OUTPUT t TO "b";`)
	s := g.String()
	if !strings.Contains(s, "root 0") || !strings.Contains(s, "root 1") {
		t.Errorf("graph dump missing roots:\n%s", s)
	}
	if !strings.Contains(s, "shared") {
		t.Errorf("graph dump should mark shared nodes:\n%s", s)
	}
}

func TestRowWidth(t *testing.T) {
	g := mustCompile(t, `t = EXTRACT a:int, b:string, c:long FROM "f"; OUTPUT t TO "o";`)
	// int(4) + string(24) + long(8) = 36
	if w := g.Roots[0].RowWidth(); w != 36 {
		t.Errorf("row width = %d, want 36", w)
	}
}

// TestTemplateHashWalkAllocatesNothing: with its pooled visit marks warm,
// the walk behind TemplateHash allocates nothing.
func TestTemplateHashWalkAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := mustCompile(t, `raw0 = EXTRACT a:long, b:int FROM "store/t/x_20211103.tsv";
rs1 = SELECT a, b FROM raw0 WHERE b > 7 AND a < 20211103;
rs2 = SELECT a, SUM(b) AS s FROM rs1 GROUP BY a;
OUTPUT rs1 TO "out/t/r1.tsv";
OUTPUT rs2 TO "out/t/r2.tsv";
`)
	want := g.TemplateHash()
	got := testing.AllocsPerRun(100, func() {
		if h := g.computeTemplateHash(); h != want {
			t.Fatalf("walk hashed %x, TemplateHash %x", h, want)
		}
	})
	if got != 0 {
		t.Errorf("%.0f allocs per TemplateHash walk, want 0", got)
	}
}

func TestTemplateHashMemoStable(t *testing.T) {
	src := `raw0 = EXTRACT a:long, b:int FROM "store/t/x.tsv";
rs1 = SELECT a, b FROM raw0 WHERE b > 7;
OUTPUT rs1 TO "out/t/r.tsv";
`
	g1, err := CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if g1.TemplateHash() != g1.TemplateHash() {
		t.Error("memoized hash changed between calls")
	}
	if g1.TemplateHash() != g2.TemplateHash() {
		t.Error("identical sources must share a template hash")
	}
	if g1.Clone().TemplateHash() != g1.TemplateHash() {
		t.Error("clone must hash identically to its original")
	}
}

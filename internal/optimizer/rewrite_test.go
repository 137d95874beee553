package optimizer

import (
	"strings"
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// optimizeSrc compiles and optimizes a script under a config derived from
// the default by the given mutation.
func optimizeSrc(t *testing.T, src string, stats MapStats, mutate func(*rules.Catalog, rules.Config) rules.Config) (*Result, *rules.Catalog) {
	t.Helper()
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cat := rules.NewCatalog()
	cfg := cat.DefaultConfig()
	if mutate != nil {
		cfg = mutate(cat, cfg)
	}
	res, err := Optimize(g, cfg, Options{Catalog: cat, Stats: stats})
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return res, cat
}

// disableKinds turns off every sibling rule of the given kinds.
func disableKinds(kinds ...rules.Kind) func(*rules.Catalog, rules.Config) rules.Config {
	return func(cat *rules.Catalog, cfg rules.Config) rules.Config {
		want := make(map[rules.Kind]bool)
		for _, k := range kinds {
			want[k] = true
		}
		for _, r := range cat.All() {
			if want[r.Kind] {
				cfg = cfg.WithFlip(rules.Flip{RuleID: r.ID, Enable: false})
			}
		}
		return cfg
	}
}

// enableKinds turns on every sibling rule of the given kinds.
func enableKinds(kinds ...rules.Kind) func(*rules.Catalog, rules.Config) rules.Config {
	return func(cat *rules.Catalog, cfg rules.Config) rules.Config {
		want := make(map[rules.Kind]bool)
		for _, k := range kinds {
			want[k] = true
		}
		for _, r := range cat.All() {
			if want[r.Kind] {
				cfg = cfg.WithFlip(rules.Flip{RuleID: r.ID, Enable: true})
			}
		}
		return cfg
	}
}

func logicalKinds(g *scope.Graph) map[scope.OpKind]int {
	m := make(map[scope.OpKind]int)
	for _, n := range g.Nodes() {
		m[n.Kind]++
	}
	return m
}

const joinFilterScript = `
big = EXTRACT k:long, v:int, w:string FROM "data/big.tsv";
dim = EXTRACT k:long, name:string FROM "data/dim.tsv";
j = SELECT b.v, d.name FROM big AS b JOIN dim AS d ON b.k == d.k WHERE v > 5 AND name == "x";
OUTPUT j TO "out/j.tsv";`

var joinFilterStats = MapStats{
	"data/big.tsv": {Rows: 1e7, NDV: map[string]float64{"k": 1e6, "v": 100, "w": 50}},
	"data/dim.tsv": {Rows: 1e4, NDV: map[string]float64{"k": 1e4, "name": 100}},
}

func TestPushFilterBelowJoinSplitsConjuncts(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	// After pushdown, the filter conjuncts sit below the join: the join's
	// inputs must be filters or filtered scans, and no filter remains
	// above the join.
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpFilter && n.Inputs[0].Kind == scope.OpJoin {
			t.Errorf("filter still above join: %s", n.Label())
		}
	}
}

func TestPushdownDisabledKeepsFilterAboveJoin(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, disableKinds(
		rules.KindPushFilterBelowJoin, rules.KindSplitComplexFilter,
		rules.KindPushFilterIntoScan, rules.KindPushFilterBelowProject))
	found := false
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpFilter && n.Inputs[0].Kind == scope.OpJoin {
			found = true
		}
	}
	if !found {
		t.Error("with pushdown disabled the filter should stay above the join")
	}
}

func TestPushFilterIntoScanMergesPredicate(t *testing.T) {
	src := `
t = EXTRACT a:int, b:int FROM "data/t.tsv";
x = SELECT a FROM t WHERE a > 3;
OUTPUT x TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 100, "b": 100}}}
	res, _ := optimizeSrc(t, src, st, nil)
	kinds := logicalKinds(res.Logical)
	if kinds[scope.OpFilter] != 0 {
		t.Errorf("filter should be merged into the scan, found %d filters", kinds[scope.OpFilter])
	}
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpScan && n.Pred == nil {
			t.Error("scan should carry the pushed predicate")
		}
	}
}

func TestLocalGlobalAggInsertsPartial(t *testing.T) {
	src := `
t = EXTRACT k:int, v:double FROM "data/t.tsv";
a = SELECT k, SUM(v) AS s FROM t GROUP BY k;
OUTPUT a TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 100, "v": 1e6}}}
	res, _ := optimizeSrc(t, src, st, nil)
	partials := 0
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpAgg && n.Partial {
			partials++
		}
	}
	if partials != 1 {
		t.Errorf("partial aggs = %d, want 1", partials)
	}
	// Disabled: no partial agg.
	res2, _ := optimizeSrc(t, src, st, disableKinds(rules.KindLocalGlobalAgg))
	for _, n := range res2.Logical.Nodes() {
		if n.Kind == scope.OpAgg && n.Partial {
			t.Error("partial agg inserted despite LocalGlobalAgg disabled")
		}
	}
}

func TestAvgAggregateIsNotSplit(t *testing.T) {
	src := `
t = EXTRACT k:int, v:double FROM "data/t.tsv";
a = SELECT k, AVG(v) AS m FROM t GROUP BY k;
OUTPUT a TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 100}}}
	res, _ := optimizeSrc(t, src, st, nil)
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpAgg && n.Partial {
			t.Error("AVG is not decomposable and must not be split")
		}
	}
}

func TestDistinctToAggRewrite(t *testing.T) {
	src := `
t = EXTRACT a:int FROM "data/t.tsv";
d = SELECT DISTINCT a FROM t;
OUTPUT d TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 100}}}
	res, _ := optimizeSrc(t, src, st, nil)
	kinds := logicalKinds(res.Logical)
	if kinds[scope.OpDistinct] != 0 {
		t.Error("distinct should rewrite to an aggregation under defaults")
	}
	res2, _ := optimizeSrc(t, src, st, disableKinds(rules.KindDistinctToAgg))
	kinds2 := logicalKinds(res2.Logical)
	if kinds2[scope.OpDistinct] != 1 {
		t.Error("distinct should survive with DistinctToAgg disabled")
	}
}

func TestSemiJoinReductionFires(t *testing.T) {
	// The join keeps no right-side columns: with the off-by-default
	// semi-join rule enabled, it becomes a semi join.
	src := `
l = EXTRACT k:long, v:int FROM "data/l.tsv";
r = EXTRACT k:long, extra:string FROM "data/r.tsv";
j = SELECT a.v FROM l AS a JOIN r AS b ON a.k == b.k;
OUTPUT j TO "o";`
	st := MapStats{
		"data/l.tsv": {Rows: 1e6, NDV: map[string]float64{"k": 1e5}},
		"data/r.tsv": {Rows: 1e5, NDV: map[string]float64{"k": 1e5}},
	}
	res, _ := optimizeSrc(t, src, st, enableKinds(rules.KindSemiJoinReduction))
	foundSemi := false
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpJoin && n.JoinType == scope.JoinSemi {
			foundSemi = true
		}
	}
	if !foundSemi {
		t.Error("semi-join reduction did not fire with the rule enabled")
	}
	// Default (off): inner join survives.
	res2, _ := optimizeSrc(t, src, st, nil)
	for _, n := range res2.Logical.Nodes() {
		if n.Kind == scope.OpJoin && n.JoinType == scope.JoinSemi {
			t.Error("semi-join reduction fired while off by default")
		}
	}
}

func TestColumnPruningNarrowsScans(t *testing.T) {
	src := `
t = EXTRACT a:int, b:string, c:string, d:string, e:double FROM "data/t.tsv";
x = SELECT a FROM t WHERE a > 1;
OUTPUT x TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 100}}}
	res, _ := optimizeSrc(t, src, st, nil)
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpScan {
			if len(n.Cols) != 1 || n.Cols[0].Name != "a" {
				t.Errorf("scan should be pruned to [a], got %v", n.Cols)
			}
			if n.BaseWidth <= n.RowWidth() {
				t.Error("pruned width should be below the base width")
			}
		}
	}
	// Disabled: all five columns survive.
	res2, _ := optimizeSrc(t, src, st, disableKinds(rules.KindPruneColumns))
	for _, n := range res2.Logical.Nodes() {
		if n.Kind == scope.OpScan && len(n.Cols) != 5 {
			t.Errorf("unpruned scan should keep 5 columns, got %d", len(n.Cols))
		}
	}
}

func TestFlattenUnion(t *testing.T) {
	src := `
a = EXTRACT x:int FROM "data/a.tsv";
b = EXTRACT x:int FROM "data/b.tsv";
c = EXTRACT x:int FROM "data/c.tsv";
u1 = a UNION ALL b;
u2 = u1 UNION ALL c;
OUTPUT u2 TO "o";`
	st := MapStats{}
	res, _ := optimizeSrc(t, src, st, nil)
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpUnion {
			if len(n.Inputs) != 3 {
				t.Errorf("nested unions should flatten to a 3-way union, got %d-way", len(n.Inputs))
			}
			for _, in := range n.Inputs {
				if in.Kind == scope.OpUnion {
					t.Error("union input still a union after flattening")
				}
			}
		}
	}
}

func TestRemoveRedundantSortBelowAgg(t *testing.T) {
	src := `
t = EXTRACT k:int, v:int FROM "data/t.tsv";
s = SELECT k, v FROM t ORDER BY v;
a = SELECT k, COUNT(*) AS c FROM s GROUP BY k;
OUTPUT a TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"k": 100, "v": 1e4}}}
	res, _ := optimizeSrc(t, src, st, nil)
	kinds := logicalKinds(res.Logical)
	if kinds[scope.OpSort] != 0 {
		t.Error("sort below an aggregation is redundant and should be removed")
	}
	res2, _ := optimizeSrc(t, src, st, disableKinds(rules.KindRemoveRedundantSort))
	kinds2 := logicalKinds(res2.Logical)
	if kinds2[scope.OpSort] != 1 {
		t.Error("sort should survive with the removal rule disabled")
	}
}

func TestTopNPushdownThroughUnion(t *testing.T) {
	src := `
a = EXTRACT x:int FROM "data/a.tsv";
b = EXTRACT x:int FROM "data/b.tsv";
u = a UNION ALL b;
t10 = SELECT * FROM u ORDER BY x DESC TOP 10;
OUTPUT t10 TO "o";`
	st := MapStats{}
	res, _ := optimizeSrc(t, src, st, nil)
	tops := 0
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpTop {
			tops++
		}
	}
	// Outer top plus one pushed top per union input.
	if tops < 3 {
		t.Errorf("tops = %d, want >= 3 after pushdown", tops)
	}
}

func TestJoinCommuteMarksBuildLeft(t *testing.T) {
	// Left side smaller than right: commute should mark BuildLeft.
	src := `
small = EXTRACT k:long, s:int FROM "data/small.tsv";
big = EXTRACT k:long, v:int FROM "data/big.tsv";
j = SELECT a.s, b.v FROM small AS a JOIN big AS b ON a.k == b.k;
OUTPUT j TO "o";`
	st := MapStats{
		"data/small.tsv": {Rows: 1e3, NDV: map[string]float64{"k": 1e3}},
		"data/big.tsv":   {Rows: 1e7, NDV: map[string]float64{"k": 1e6}},
	}
	res, _ := optimizeSrc(t, src, st, nil)
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpJoin && !n.BuildLeft {
			t.Error("join with smaller left side should build left after commute")
		}
	}
}

func TestBroadcastAnnotationEnabled(t *testing.T) {
	src := `
big = EXTRACT k:long, v:int FROM "data/big.tsv";
dim = EXTRACT k:long, s:int FROM "data/dim.tsv";
j = SELECT a.v, b.s FROM big AS a JOIN dim AS b ON a.k == b.k;
OUTPUT j TO "o";`
	st := MapStats{
		"data/big.tsv": {Rows: 1e7, NDV: map[string]float64{"k": 1e6}},
		"data/dim.tsv": {Rows: 5e3, NDV: map[string]float64{"k": 5e3}},
	}
	res, _ := optimizeSrc(t, src, st, enableKinds(rules.KindBroadcastAnnotation))
	annotated := false
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpJoin && n.BroadcastRight {
			annotated = true
		}
	}
	if !annotated {
		t.Error("broadcast annotation should fire for a small build side")
	}
	// And the physical plan uses a broadcast join.
	hasBroadcast := false
	for _, n := range res.Plan.Nodes() {
		if n.Op == PhysBroadcastJoin {
			hasBroadcast = true
		}
	}
	if !hasBroadcast {
		t.Error("annotated join should lower to a broadcast join")
	}
}

func TestMergeProjectsComposesExpressions(t *testing.T) {
	src := `
t = EXTRACT a:int, b:int FROM "data/t.tsv";
p1 = SELECT a + b AS s, a FROM t;
p2 = SELECT s + 1 AS s1 FROM p1;
OUTPUT p2 TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e5, NDV: map[string]float64{"a": 10, "b": 10}}}
	res, _ := optimizeSrc(t, src, st, nil)
	kinds := logicalKinds(res.Logical)
	if kinds[scope.OpProject] != 1 {
		t.Errorf("stacked projects should merge, got %d projects", kinds[scope.OpProject])
	}
	// The merged expression must substitute the inner definition.
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpProject {
			if !strings.Contains(n.Projs[0].E.String(), "a + b") {
				t.Errorf("merged projection should inline (a + b): %s", n.Projs[0].E)
			}
		}
	}
}

func TestSignatureDiffersAcrossConfigs(t *testing.T) {
	res1, cat := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	res2, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, disableKinds(rules.KindPushFilterBelowJoin, rules.KindSplitComplexFilter))
	if res1.Signature.Equal(res2.Signature.Bitset) {
		t.Error("different configs should usually yield different signatures")
	}
	_ = cat
}

func TestTuningRulesAffectPlan(t *testing.T) {
	// Disabling all exchange-compression tuning rules must change cost on
	// a shuffle-heavy plan where at least one compression rule matched.
	src := `
t = EXTRACT k:long, v:double, w:string FROM "data/t.tsv";
a = SELECT k, SUM(v) AS s FROM t GROUP BY k;
OUTPUT a TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e7, NDV: map[string]float64{"k": 5e6, "v": 1e5, "w": 100}}}
	base, _ := optimizeSrc(t, src, st, nil)
	noTune, _ := optimizeSrc(t, src, st, disableKinds(
		rules.KindTuneExchangeCompression, rules.KindTunePartitionCount,
		rules.KindTuneVertexPacking, rules.KindTuneStageFusion, rules.KindTuneSortBuffer))
	if base.EstCost == noTune.EstCost {
		t.Skip("no tuning rule matched this template (gate-dependent)")
	}
}

func TestExperimentalValidityFailureIsDeterministic(t *testing.T) {
	// Enabling all off-by-default rules either always fails or always
	// succeeds for a given template.
	g, err := scope.CompileScript(joinFilterScript)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	cfg := cat.DefaultConfig()
	for _, r := range cat.Rules(rules.OffByDefault) {
		cfg = cfg.WithFlip(rules.Flip{RuleID: r.ID, Enable: true})
	}
	opts := Options{Catalog: cat, Stats: joinFilterStats}
	_, err1 := Optimize(g, cfg, opts)
	_, err2 := Optimize(g, cfg, opts)
	if (err1 == nil) != (err2 == nil) {
		t.Error("experimental validity must be deterministic")
	}
}

func TestSingleFlipFailureRate(t *testing.T) {
	// The deterministic "unsupported rule combination" rejection should
	// fail roughly 1/6 of single flips, matching Table 3's failure rates.
	g, err := scope.CompileScript(joinFilterScript)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	opts := Options{Catalog: cat, Stats: joinFilterStats}
	fails, total := 0, 0
	for id := 0; id < rules.NumRules; id++ {
		if cat.Rule(id).Category == rules.Required {
			continue
		}
		total++
		flip := cat.FlipFor(id)
		if _, err := Optimize(g, def.WithFlip(flip), opts); err != nil {
			fails++
		}
	}
	rate := float64(fails) / float64(total)
	if rate < 0.08 || rate > 0.30 {
		t.Errorf("single-flip failure rate = %.2f, want ~0.17 (paper: 0.14-0.18)", rate)
	}
}

func TestJoinAssociateRotatesChain(t *testing.T) {
	// (huge ⋈ mid) ⋈ tiny where mid ⋈ tiny is small: rotation helps.
	src := `
huge = EXTRACT hk:long, hv:int FROM "data/huge.tsv";
mid = EXTRACT mk:long, mv:int FROM "data/mid.tsv";
tiny = EXTRACT tk:long, tv:int FROM "data/tiny.tsv";
j1 = SELECT * FROM huge AS a JOIN mid AS b ON a.hk == b.mk;
j2 = SELECT * FROM j1 AS a JOIN tiny AS c ON a.mk == c.tk;
OUTPUT j2 TO "o";`
	st := MapStats{
		"data/huge.tsv": {Rows: 1e8, NDV: map[string]float64{"hk": 1e4}},
		"data/mid.tsv":  {Rows: 1e6, NDV: map[string]float64{"mk": 1e4}},
		"data/tiny.tsv": {Rows: 1e3, NDV: map[string]float64{"tk": 1e6}},
	}
	// Default: the rule is off; the chain stays left-deep.
	res, _ := optimizeSrc(t, src, st, nil)
	leftDeep := false
	for _, n := range res.Logical.Nodes() {
		if n.Kind == scope.OpJoin && n.Inputs[0].Kind == scope.OpJoin {
			leftDeep = true
		}
	}
	if !leftDeep {
		t.Fatal("expected a left-deep join chain under defaults")
	}
	// Enabled: the rotation fires and some join gains a join as its
	// RIGHT input.
	res2, _ := optimizeSrc(t, src, st, enableKinds(rules.KindJoinAssociate))
	rightDeep := false
	for _, n := range res2.Logical.Nodes() {
		if n.Kind == scope.OpJoin && n.Inputs[1].Kind == scope.OpJoin {
			rightDeep = true
		}
	}
	if !rightDeep {
		t.Error("join-associate should rotate the chain right-deep")
	}
	if res2.EstCost >= res.EstCost {
		t.Errorf("rotation should reduce estimated cost: %.3g vs %.3g", res2.EstCost, res.EstCost)
	}
}

// TestPushFilterBelowPassThroughProjectKeepsPredicate: a filter pushed
// below a project that passes its columns through keeps its own predicate
// — a reference the projection maps to an equal one is not copied — and a
// renamed column copies only the spine above it. Either way the pushed
// filter's site key and the plan are the ones the rule produced when it
// copied every reference.
func TestPushFilterBelowPassThroughProjectKeepsPredicate(t *testing.T) {
	const wantPlan = `root 0 (cost 2.28e+06):
  #3 s1 Output{Output(out/f.tsv)} x3 rows=90000
    #2 s1 Project{Project(k)} x3 rows=90000
      #1 s1 Filter{Filter(((v > 5) AND (k < 1000)))} x3 rows=90000
        #0 s1 ColumnScan{Scan(data/raw.tsv)} x3 rows=1000000
`
	stats := MapStats{"data/raw.tsv": {Rows: 1e6, NDV: map[string]float64{"k": 1e5, "v": 100, "w": 50}}}
	for _, tc := range []struct {
		name, project, where string
		keepsPred            bool
	}{
		{"pass-through", "k, v", "v > 5 AND k < 1000", true},
		{"renamed", "k, v AS x", "x > 5 AND k < 1000", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := scope.CompileScript(`
raw = EXTRACT k:long, v:int, w:string FROM "data/raw.tsv";
p = SELECT ` + tc.project + ` FROM raw;
f = SELECT k FROM p WHERE ` + tc.where + `;
OUTPUT f TO "out/f.tsv";`)
			if err != nil {
				t.Fatal(err)
			}
			var pred *scope.BinaryExpr
			for _, n := range g.Nodes() {
				if n.Kind == scope.OpFilter {
					pred = n.Pred.(*scope.BinaryExpr)
				}
			}
			cat := rules.NewCatalog()
			res, err := Optimize(g, disableKinds(rules.KindPushFilterIntoScan)(cat, cat.DefaultConfig()), Options{Catalog: cat, Stats: stats})
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			for _, r := range cat.OfKind(rules.KindPushFilterBelowProject) {
				fired = fired || res.Signature.Fired(r.ID)
			}
			if !fired {
				t.Fatal("PushFilterBelowProject did not fire")
			}
			var pushed *scope.Node
			for _, n := range res.Logical.Nodes() {
				if n.Kind == scope.OpFilter && n.Inputs[0].Kind == scope.OpScan {
					pushed = n
				}
			}
			if pushed == nil {
				t.Fatal("no filter directly above the scan")
			}
			got := pushed.Pred.(*scope.BinaryExpr)
			if keeps := got == pred; keeps != tc.keepsPred {
				t.Errorf("pushed filter keeps the filter's own predicate: %v, want %v", keeps, tc.keepsPred)
			}
			if got.Right != pred.Right {
				t.Error("the conjunct on the unrenamed column k was copied")
			}
			if site := string(pushed.AppendSiteKey(nil)); site != "filter:((v > 5) AND (k < 1000))" {
				t.Errorf("site key %q", site)
			}
			if plan := res.Plan.String(); plan != wantPlan {
				t.Errorf("plan\n%s\nwant\n%s", plan, wantPlan)
			}
		})
	}
}

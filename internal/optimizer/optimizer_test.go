package optimizer

import (
	"strings"
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

const testScript = `
logs = EXTRACT uid:long, page:string, dur:int, score:double FROM "data/logs_20211103.tsv";
users = EXTRACT uid:long, region:string, age:int FROM "data/users.tsv";
clicks = SELECT uid, page, dur FROM logs WHERE dur > 100 AND score >= 0.5;
joined = SELECT l.uid, l.dur, u.region FROM clicks AS l JOIN users AS u ON l.uid == u.uid;
agg = SELECT region, COUNT(*) AS cnt, SUM(dur) AS total FROM joined GROUP BY region HAVING COUNT(*) > 10 ORDER BY cnt DESC TOP 100;
OUTPUT agg TO "out/agg.tsv";
`

func testStats() MapStats {
	return MapStats{
		"data/logs_20211103.tsv": {
			Rows: 5e6,
			NDV:  map[string]float64{"uid": 1e5, "page": 5000, "dur": 2000, "score": 100},
		},
		"data/users.tsv": {
			Rows: 1e5,
			NDV:  map[string]float64{"uid": 1e5, "region": 50, "age": 80},
		},
	}
}

func compileTestGraph(t *testing.T, src string) *scope.Graph {
	t.Helper()
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatalf("CompileScript: %v", err)
	}
	return g
}

func optimizeDefault(t *testing.T, src string) (*Result, *rules.Catalog) {
	t.Helper()
	g := compileTestGraph(t, src)
	cat := rules.NewCatalog()
	res, err := Optimize(g, cat.DefaultConfig(), Options{Catalog: cat, Stats: testStats()})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return res, cat
}

func TestOptimizeDefaultConfigSucceeds(t *testing.T) {
	res, _ := optimizeDefault(t, testScript)
	if res.Plan == nil || len(res.Plan.Roots) != 1 {
		t.Fatal("missing physical plan")
	}
	if res.EstCost <= 0 {
		t.Errorf("EstCost = %v, want > 0", res.EstCost)
	}
	if res.Plan.EstVertices <= 0 {
		t.Errorf("EstVertices = %d, want > 0", res.Plan.EstVertices)
	}
	if len(res.Plan.Stages) < 2 {
		t.Errorf("stages = %d, want >= 2 (exchanges should split stages)", len(res.Plan.Stages))
	}
}

func TestOptimizeIsDeterministic(t *testing.T) {
	r1, _ := optimizeDefault(t, testScript)
	r2, _ := optimizeDefault(t, testScript)
	if r1.EstCost != r2.EstCost {
		t.Errorf("cost not deterministic: %v vs %v", r1.EstCost, r2.EstCost)
	}
	if !r1.Signature.Equal(r2.Signature.Bitset) {
		t.Error("signature not deterministic")
	}
}

func TestOptimizeDoesNotMutateInput(t *testing.T) {
	g := compileTestGraph(t, testScript)
	before := g.String()
	cat := rules.NewCatalog()
	if _, err := Optimize(g, cat.DefaultConfig(), Options{Catalog: cat, Stats: testStats()}); err != nil {
		t.Fatal(err)
	}
	if g.String() != before {
		t.Error("Optimize mutated the input graph")
	}
}

func TestSignatureContainsRequiredAndUsedRules(t *testing.T) {
	res, cat := optimizeDefault(t, testScript)
	for _, r := range cat.Rules(rules.Required) {
		if !res.Signature.Fired(r.ID) {
			t.Errorf("required rule %s not in signature", r.Name)
		}
	}
	// At least one implementation rule must have fired (joins, aggs...).
	firedImpl := 0
	for _, r := range cat.Rules(rules.Implementation) {
		if res.Signature.Fired(r.ID) {
			firedImpl++
		}
	}
	if firedImpl == 0 {
		t.Error("no implementation rules in signature")
	}
	// No off-by-default rule can fire under the default config.
	for _, r := range cat.Rules(rules.OffByDefault) {
		if res.Signature.Fired(r.ID) {
			t.Errorf("off-by-default rule %s fired under default config", r.Name)
		}
	}
}

func TestDisabledRequiredRuleFailsCompilation(t *testing.T) {
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	req := cat.Rules(rules.Required)[0]
	cfg := cat.DefaultConfig().WithFlip(rules.Flip{RuleID: req.ID, Enable: false})
	_, err := Optimize(g, cfg, Options{Catalog: cat, Stats: testStats()})
	if err == nil {
		t.Fatal("expected compile failure")
	}
	if !IsCompileFailure(err) {
		t.Errorf("error type %T, want CompileFailure", err)
	}
}

func TestSingleFlipChangesPlanForSignatureRules(t *testing.T) {
	res, cat := optimizeDefault(t, testScript)
	g := compileTestGraph(t, testScript)
	def := cat.DefaultConfig()
	changed := 0
	tried := 0
	for _, id := range res.Signature.Bits() {
		r := cat.Rule(id)
		if r.Category == rules.Required {
			continue
		}
		tried++
		cfg := def.WithFlip(rules.Flip{RuleID: id, Enable: false})
		res2, err := Optimize(g, cfg, Options{Catalog: cat, Stats: testStats()})
		if err != nil {
			changed++ // a compile failure is also a plan change
			continue
		}
		if res2.EstCost != res.EstCost || !res2.Signature.Equal(res.Signature.Bitset) {
			changed++
		}
	}
	if tried == 0 {
		t.Fatal("no non-required rules in signature")
	}
	if changed == 0 {
		t.Errorf("disabling fired rules never changed the plan (%d tried)", tried)
	}
}

func TestFilterPushdownReducesCost(t *testing.T) {
	src := `
big = EXTRACT k:long, v:int, w:string FROM "data/big.tsv";
dim = EXTRACT k:long, name:string FROM "data/dim.tsv";
j = SELECT b.v, d.name FROM big AS b JOIN dim AS d ON b.k == d.k WHERE v > 5;
OUTPUT j TO "out/j.tsv";`
	stats := MapStats{
		"data/big.tsv": {Rows: 1e7, NDV: map[string]float64{"k": 1e6, "v": 100}},
		"data/dim.tsv": {Rows: 1e4, NDV: map[string]float64{"k": 1e4}},
	}
	g := compileTestGraph(t, src)
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()

	withPush, err := Optimize(g, def, Options{Catalog: cat, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	// Disable every filter-pushdown sibling rule.
	cfg := def
	for _, r := range cat.All() {
		switch r.Kind {
		case rules.KindPushFilterBelowJoin, rules.KindPushFilterIntoScan,
			rules.KindPushFilterBelowProject, rules.KindSplitComplexFilter:
			cfg = cfg.WithFlip(rules.Flip{RuleID: r.ID, Enable: false})
		}
	}
	withoutPush, err := Optimize(g, cfg, Options{Catalog: cat, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if withPush.EstCost >= withoutPush.EstCost {
		t.Errorf("pushdown should reduce cost: with=%.4g without=%.4g", withPush.EstCost, withoutPush.EstCost)
	}
}

func TestPhysicalPlanHasExchanges(t *testing.T) {
	res, _ := optimizeDefault(t, testScript)
	exchanges := 0
	for _, n := range res.Plan.Nodes() {
		if n.IsExchange() {
			exchanges++
		}
	}
	if exchanges == 0 {
		t.Error("expected exchange operators in a distributed plan")
	}
}

func TestStagePartitionsArePositive(t *testing.T) {
	res, _ := optimizeDefault(t, testScript)
	for _, s := range res.Plan.Stages {
		if s.Partitions < 1 {
			t.Errorf("stage %d has partitions %d", s.ID, s.Partitions)
		}
		if len(s.Nodes) == 0 {
			t.Errorf("stage %d has no nodes", s.ID)
		}
	}
}

// trueEnv is a toy ground-truth environment for Recardinalize tests.
type trueEnv struct {
	rows map[string]float64
	sels map[string]float64
}

func (e *trueEnv) BaseRows(path string) float64 {
	if r, ok := e.rows[path]; ok {
		return r
	}
	return 1e6
}

func (e *trueEnv) Selectivity(site []byte, heuristic float64) float64 {
	if s, ok := e.sels[string(site)]; ok {
		return s
	}
	return heuristic
}

func TestRecardinalizeUsesTrueEnvironment(t *testing.T) {
	res, _ := optimizeDefault(t, testScript)
	env := &trueEnv{
		rows: map[string]float64{"data/logs_20211103.tsv": 2e7, "data/users.tsv": 1e5},
		sels: map[string]float64{},
	}
	trueRows := res.Plan.Recardinalize(nil, env, testStats())
	estTotal, trueTotal := 0.0, 0.0
	for _, n := range res.Plan.Nodes() {
		estTotal += n.EstRows
		trueTotal += trueRows[n.ID]
	}
	if trueTotal <= estTotal {
		t.Errorf("true rows (%.3g) should exceed estimates (%.3g) with 4x base rows", trueTotal, estTotal)
	}
}

func TestOptimizeSharedSubplan(t *testing.T) {
	src := `
t = EXTRACT a:long, b:int FROM "data/t.tsv";
x = SELECT a, b FROM t WHERE b > 10;
y = SELECT a FROM x WHERE b > 20;
z = SELECT a, COUNT(*) AS c FROM x GROUP BY a;
OUTPUT y TO "out/y.tsv";
OUTPUT z TO "out/z.tsv";`
	g := compileTestGraph(t, src)
	cat := rules.NewCatalog()
	res, err := Optimize(g, cat.DefaultConfig(), Options{Catalog: cat, Stats: MapStats{
		"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 1e5, "b": 100}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Roots) != 2 {
		t.Fatalf("roots = %d, want 2", len(res.Plan.Roots))
	}
}

func TestOptimizeUnionAndSort(t *testing.T) {
	src := `
a = EXTRACT k:long, v:int FROM "data/a.tsv";
b = EXTRACT k:long, v:int FROM "data/b.tsv";
u = a UNION ALL b;
s = SELECT k, v FROM u WHERE v > 3 ORDER BY v DESC;
OUTPUT s TO "out/s.tsv";`
	g := compileTestGraph(t, src)
	cat := rules.NewCatalog()
	res, err := Optimize(g, cat.DefaultConfig(), Options{Catalog: cat, Stats: MapStats{
		"data/a.tsv": {Rows: 1e6, NDV: map[string]float64{"k": 1e5, "v": 100}},
		"data/b.tsv": {Rows: 2e6, NDV: map[string]float64{"k": 2e5, "v": 100}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	hasSort := false
	for _, n := range res.Plan.Nodes() {
		if n.Op == PhysSort {
			hasSort = true
		}
	}
	if !hasSort {
		t.Error("ORDER BY should lower to a physical sort")
	}
}

func TestOffByDefaultRulesCanFire(t *testing.T) {
	// Enabling all off-by-default rules should fire at least one of them
	// on a plan with aggregation above a join.
	g := compileTestGraph(t, testScript)
	cat := rules.NewCatalog()
	cfg := cat.DefaultConfig()
	for _, r := range cat.Rules(rules.OffByDefault) {
		cfg = cfg.WithFlip(rules.Flip{RuleID: r.ID, Enable: true})
	}
	res, err := Optimize(g, cfg, Options{Catalog: cat, Stats: testStats()})
	if err != nil {
		// Experimental rules may legitimately fail validation; that
		// still proves they fired.
		if !IsCompileFailure(err) {
			t.Fatalf("unexpected error type: %v", err)
		}
		return
	}
	fired := 0
	for _, r := range cat.Rules(rules.OffByDefault) {
		if res.Signature.Fired(r.ID) {
			fired++
		}
	}
	if fired == 0 {
		t.Error("no off-by-default rule fired even with all enabled")
	}
}

// TestCompileFailureError pins the message of each failure kind. A
// CompileFailure keeps its kind and operands and formats the message only
// when Error is called.
func TestCompileFailureError(t *testing.T) {
	r := rules.Rule{ID: 7, Name: "PushFilterBelowJoin"}
	cond := &scope.BinaryExpr{Op: "==", Left: &scope.ColRef{Name: "uid"}, Right: &scope.ColRef{Qualifier: "u", Name: "uid"}}
	for _, tc := range []struct {
		err  *CompileFailure
		want string
	}{
		{&CompileFailure{kind: failRequiredOff, rule: r}, "required rule PushFilterBelowJoin (R007) is disabled"},
		{&CompileFailure{kind: failUnsupportedFlip, rule: r}, "unsupported rule combination: flipping PushFilterBelowJoin (R007) on this plan shape"},
		{&CompileFailure{kind: failInvalidPlan, rule: rules.Rule{ID: 213, Name: "Exp213"}}, "experimental rule Exp213 (R213) produced an invalid plan"},
		{&CompileFailure{kind: failNoPartitioning, operand: "uid,page"}, `no partitioning implementation enabled for key "uid,page"`},
		{&CompileFailure{kind: failRangeOff, operand: `a"b`}, `range partitioner disabled for key "a\"b"`},
		{&CompileFailure{kind: failNoLowering, op: scope.OpProcess}, "no lowering for operator Process"},
		{&CompileFailure{kind: failNoLowering, op: scope.OpKind(99)}, "no lowering for operator op(99)"},
		{&CompileFailure{kind: failNoScan, operand: "data/logs_20211103.tsv"}, "no scan implementation enabled for data/logs_20211103.tsv"},
		{&CompileFailure{kind: failNoJoin, cond: cond}, "no join implementation enabled for (uid == u.uid)"},
		{&CompileFailure{kind: failNoJoin}, "no join implementation enabled for %!s(<nil>)"},
		{&CompileFailure{kind: failNoAgg}, "no aggregation implementation enabled"},
		{&CompileFailure{kind: failNoUnion}, "no union implementation enabled"},
		{&CompileFailure{kind: failSortOff, operand: "cnt,region"}, "sort implementation disabled for keys cnt,region"},
		{&CompileFailure{kind: failNoTopN}, "no top-n implementation enabled"},
	} {
		if got, want := tc.err.Error(), "optimizer: compilation failed: "+tc.want; got != want {
			t.Errorf("kind %d: Error() = %q, want %q", tc.err.kind, got, want)
		}
		if !IsCompileFailure(tc.err) {
			t.Errorf("kind %d is not a compile failure", tc.err.kind)
		}
	}
	if IsCompileFailure(nil) {
		t.Error("nil is not a compile failure")
	}
}

func TestPlanStringRenders(t *testing.T) {
	res, _ := optimizeDefault(t, testScript)
	s := res.Plan.String()
	if !strings.Contains(s, "root 0") {
		t.Errorf("plan dump missing root:\n%s", s)
	}
	if !strings.Contains(s, "Exchange") {
		t.Errorf("plan dump missing exchanges:\n%s", s)
	}
}

func TestHasEquiCond(t *testing.T) {
	eq := &scope.BinaryExpr{Op: "==", Left: &scope.ColRef{Name: "a"}, Right: &scope.ColRef{Name: "b"}}
	if !HasEquiCond(eq) {
		t.Error("simple equality should be equi")
	}
	lit := &scope.BinaryExpr{Op: "==", Left: &scope.ColRef{Name: "a"}, Right: &scope.IntLit{Value: 1}}
	if HasEquiCond(lit) {
		t.Error("column-literal equality is not an equi-join cond")
	}
	and := &scope.BinaryExpr{Op: "AND", Left: lit, Right: eq}
	if !HasEquiCond(and) {
		t.Error("conjunction containing equality should be equi")
	}
}

func TestEstimationEnvDefaults(t *testing.T) {
	env := &EstimationEnv{Stats: MapStats{}}
	if got := env.BaseRows("missing"); got != 1e6 {
		t.Errorf("default rows = %v", got)
	}
	env2 := &EstimationEnv{Stats: MapStats{}, DefaultRows: 42}
	if got := env2.BaseRows("missing"); got != 42 {
		t.Errorf("default rows = %v", got)
	}
	if got := env.Selectivity([]byte("any"), 0.25); got != 0.25 {
		t.Errorf("estimation env must return the heuristic, got %v", got)
	}
}

package optimizer

import (
	"testing"

	"qoadvisor/internal/scope"
)

func predOf(t *testing.T, pred string) scope.Expr {
	t.Helper()
	src := `x = SELECT a FROM t WHERE ` + pred + `; OUTPUT x TO "o";`
	s, err := scope.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.Statements[0].(*scope.SelectStmt)
	return sel.Where
}

var costCols = []scope.Column{
	{Name: "a", Type: scope.TypeInt, Source: "t:a"},
	{Name: "b", Type: scope.TypeInt, Source: "t:b"},
}

var costStats = MapStats{"t": {Rows: 1e6, NDV: map[string]float64{"a": 100, "b": 1e4}}}

func TestPredSelectivityEquality(t *testing.T) {
	// Equality on a column with NDV 100 -> 1/100.
	got := predSelectivity(predOf(t, "a == 5"), costCols, 1e6, costStats)
	if got != 0.01 {
		t.Errorf("selectivity = %v, want 0.01", got)
	}
	// Equality on the higher-NDV column is more selective.
	gotB := predSelectivity(predOf(t, "b == 5"), costCols, 1e6, costStats)
	if gotB >= got {
		t.Errorf("b (%v) should be more selective than a (%v)", gotB, got)
	}
}

func TestPredSelectivityRangeAndNegation(t *testing.T) {
	rng := predSelectivity(predOf(t, "a > 5"), costCols, 1e6, costStats)
	if rng != selRange {
		t.Errorf("range selectivity = %v, want %v", rng, selRange)
	}
	neq := predSelectivity(predOf(t, "a != 5"), costCols, 1e6, costStats)
	if neq != selInequality {
		t.Errorf("inequality selectivity = %v", neq)
	}
	not := predSelectivity(predOf(t, "NOT a > 5"), costCols, 1e6, costStats)
	if not != 1-selRange {
		t.Errorf("NOT range = %v, want %v", not, 1-selRange)
	}
}

func TestPredSelectivityConjunctionsAndDisjunctions(t *testing.T) {
	and := predSelectivity(predOf(t, "a > 5 AND b > 5"), costCols, 1e6, costStats)
	if and != selRange*selRange {
		t.Errorf("AND = %v, want %v", and, selRange*selRange)
	}
	or := predSelectivity(predOf(t, "a > 5 OR b > 5"), costCols, 1e6, costStats)
	want := selRange + selRange - selRange*selRange
	if or != want {
		t.Errorf("OR = %v, want %v", or, want)
	}
	if or <= and {
		t.Error("OR must be less selective than AND")
	}
}

func TestNdvCappedByRows(t *testing.T) {
	col := scope.Column{Name: "b", Source: "t:b"}
	// NDV 1e4 but only 50 rows: capped at 50.
	if got := ndvOf(costStats, col, 50); got != 50 {
		t.Errorf("ndv = %v, want 50", got)
	}
	// Unknown source: rows/10 heuristic.
	unknown := scope.Column{Name: "z"}
	if got := ndvOf(costStats, unknown, 1000); got != 100 {
		t.Errorf("computed-column ndv = %v, want 100", got)
	}
}

func TestCardEngineFilterConjunctStability(t *testing.T) {
	// A filter with pred (A AND B) must produce the same cardinality as
	// two stacked filters A, B — the invariant that keeps merge/split
	// rewrites cardinality-neutral.
	g1, err := scope.CompileScript(`
t = EXTRACT a:int, b:int FROM "t";
x = SELECT a FROM t WHERE a > 5 AND b == 7;
OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	env := &EstimationEnv{Stats: costStats}
	ce := new(cardEngine)
	ce.reset(env, costStats, 0)
	var filterRows float64
	for _, n := range g1.Nodes() {
		if n.Kind == scope.OpFilter {
			filterRows = ce.rows(n)
		}
	}
	// Manually: 0.3 (range) * 1/1e4 (eq on b) = 3e-5, clamped to the
	// 1e-4 selectivity floor -> 100 rows.
	want := 1e6 * 0.0001
	if filterRows < want*0.99 || filterRows > want*1.01 {
		t.Errorf("filter rows = %v, want %v", filterRows, want)
	}
}

func TestCardEngineJoinEstimate(t *testing.T) {
	g, err := scope.CompileScript(`
l = EXTRACT k:long, v:int FROM "l";
r = EXTRACT k:long, w:int FROM "r";
j = SELECT a.v, b.w FROM l AS a JOIN r AS b ON a.k == b.k;
OUTPUT j TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	st := MapStats{
		"l": {Rows: 1e6, NDV: map[string]float64{"k": 1e5}},
		"r": {Rows: 1e4, NDV: map[string]float64{"k": 1e4}},
	}
	ce := new(cardEngine)
	ce.reset(&EstimationEnv{Stats: st}, st, 0)
	for _, n := range g.Nodes() {
		if n.Kind == scope.OpJoin {
			got := ce.rows(n)
			// |L||R| / max(ndv) = 1e6*1e4/1e5 = 1e5.
			if got < 0.99e5 || got > 1.01e5 {
				t.Errorf("join estimate = %v, want 1e5", got)
			}
		}
	}
}

func TestCardEngineTopAndUnion(t *testing.T) {
	g, err := scope.CompileScript(`
a = EXTRACT x:int FROM "a";
b = EXTRACT x:int FROM "b";
u = a UNION ALL b;
t5 = SELECT * FROM u ORDER BY x TOP 5;
OUTPUT t5 TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	st := MapStats{
		"a": {Rows: 1000, NDV: map[string]float64{"x": 100}},
		"b": {Rows: 2000, NDV: map[string]float64{"x": 100}},
	}
	ce := new(cardEngine)
	ce.reset(&EstimationEnv{Stats: st}, st, 0)
	for _, n := range g.Nodes() {
		switch n.Kind {
		case scope.OpUnion:
			if got := ce.rows(n); got != 3000 {
				t.Errorf("union rows = %v, want 3000", got)
			}
		case scope.OpTop:
			if got := ce.rows(n); got != 5 {
				t.Errorf("top rows = %v, want 5", got)
			}
		}
	}
}

func TestHasEqualityConjunct(t *testing.T) {
	if !hasEqualityConjunct(predOf(t, "a == 1 AND b > 2")) {
		t.Error("should find the equality conjunct")
	}
	if hasEqualityConjunct(predOf(t, "a > 1 AND b < 2")) {
		t.Error("no equality conjunct present")
	}
}

func TestTrueEnvOverridesHeuristic(t *testing.T) {
	g, err := scope.CompileScript(`
t = EXTRACT a:int, b:int FROM "t";
x = SELECT a FROM t WHERE a > 5;
OUTPUT x TO "o";`)
	if err != nil {
		t.Fatal(err)
	}
	truth := &trueEnv{
		rows: map[string]float64{"t": 1e6},
		sels: map[string]float64{"filter:(a > 5)": 0.9},
	}
	ce := new(cardEngine)
	ce.reset(truth, costStats, 0)
	for _, n := range g.Nodes() {
		if n.Kind == scope.OpFilter || (n.Kind == scope.OpScan && n.Pred != nil) {
			got := ce.rows(n)
			if got < 0.89e6 || got > 0.91e6 {
				t.Errorf("true selectivity not applied: rows = %v, want 9e5", got)
			}
		}
	}
}

func TestJoinKeyNDVNoEquiCond(t *testing.T) {
	cond := predOf(t, "a > b")
	ndv := joinKeyNDV(cond, costCols, costCols, 1e6, 1e6, costStats)
	if ndv != 1 {
		t.Errorf("non-equi join ndv = %v, want 1 (cross-join-like)", ndv)
	}
}

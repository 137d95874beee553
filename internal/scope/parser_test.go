package scope

import (
	"strings"
	"testing"
)

const sampleScript = `
logs = EXTRACT uid:long, page:string, dur:int, score:double FROM "wasb://data/logs_20211103.tsv";
users = EXTRACT uid:long, region:string FROM "wasb://data/users.tsv";
clicks = SELECT uid, page, dur FROM logs WHERE dur > 100 AND score >= 0.5;
agg = SELECT region, COUNT(*) AS cnt, SUM(l.dur) AS total
      FROM clicks AS l JOIN users AS u ON l.uid == u.uid
      GROUP BY region
      HAVING COUNT(*) > 10
      ORDER BY cnt DESC
      TOP 100;
OUTPUT agg TO "wasb://out/agg.tsv";
`

func mustParse(t *testing.T, src string) *Script {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseSampleScript(t *testing.T) {
	s := mustParse(t, sampleScript)
	if len(s.Statements) != 5 {
		t.Fatalf("got %d statements, want 5", len(s.Statements))
	}
	if _, ok := s.Statements[0].(*ExtractStmt); !ok {
		t.Errorf("stmt 0 is %T, want *ExtractStmt", s.Statements[0])
	}
	sel, ok := s.Statements[3].(*SelectStmt)
	if !ok {
		t.Fatalf("stmt 3 is %T, want *SelectStmt", s.Statements[3])
	}
	if sel.Name != "agg" {
		t.Errorf("select name = %q", sel.Name)
	}
	if len(sel.Joins) != 1 || sel.Joins[0].Type != JoinInner {
		t.Errorf("joins = %+v", sel.Joins)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Name != "region" {
		t.Errorf("group by = %+v", sel.GroupBy)
	}
	if sel.Having == nil {
		t.Error("missing HAVING")
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Top != 100 {
		t.Errorf("top = %d", sel.Top)
	}
	outputs := 0
	for _, st := range s.Statements {
		if _, ok := st.(*OutputStmt); ok {
			outputs++
		}
	}
	if outputs != 1 {
		t.Errorf("outputs = %d, want 1", outputs)
	}
}

func TestParseExtract(t *testing.T) {
	s := mustParse(t, `x = EXTRACT a:int, b:string FROM "f.tsv"; OUTPUT x TO "o";`)
	ex := s.Statements[0].(*ExtractStmt)
	if ex.Name != "x" || ex.Path != "f.tsv" {
		t.Errorf("extract = %+v", ex)
	}
	if len(ex.Schema) != 2 || ex.Schema[0].Type != TypeInt || ex.Schema[1].Type != TypeString {
		t.Errorf("schema = %+v", ex.Schema)
	}
}

func TestParseExtractBadType(t *testing.T) {
	if _, err := Parse(`x = EXTRACT a:blob FROM "f"; OUTPUT x TO "o";`); err == nil {
		t.Error("expected error for unknown column type")
	}
}

func TestParseJoinVariants(t *testing.T) {
	cases := map[string]JoinType{
		"JOIN":            JoinInner,
		"INNER JOIN":      JoinInner,
		"LEFT JOIN":       JoinLeft,
		"LEFT OUTER JOIN": JoinLeft,
		"RIGHT JOIN":      JoinRight,
		"FULL OUTER JOIN": JoinFull,
		"SEMI JOIN":       JoinSemi,
	}
	for kw, want := range cases {
		src := `x = SELECT a FROM t ` + kw + ` u ON a == b; OUTPUT x TO "o";`
		s := mustParse(t, src)
		sel := s.Statements[0].(*SelectStmt)
		if len(sel.Joins) != 1 || sel.Joins[0].Type != want {
			t.Errorf("%s: join = %+v, want %v", kw, sel.Joins, want)
		}
	}
}

func TestParseUnion(t *testing.T) {
	s := mustParse(t, `u = a UNION ALL b UNION ALL c; OUTPUT u TO "o";`)
	un := s.Statements[0].(*UnionStmt)
	if !un.All || len(un.Inputs) != 3 {
		t.Errorf("union = %+v", un)
	}
	s = mustParse(t, `u = a UNION b; OUTPUT u TO "o";`)
	un = s.Statements[0].(*UnionStmt)
	if un.All {
		t.Error("UNION without ALL should have All=false")
	}
}

func TestParseUnionMixedFails(t *testing.T) {
	if _, err := Parse(`u = a UNION ALL b UNION c; OUTPUT u TO "o";`); err == nil {
		t.Error("mixed UNION/UNION ALL should fail")
	}
}

func TestParseReduce(t *testing.T) {
	s := mustParse(t, `r = REDUCE input ON k1, k2 USING MyReducer PRODUCE a:int, b:string; OUTPUT r TO "o";`)
	rd := s.Statements[0].(*ReduceStmt)
	if rd.UserOp != "MyReducer" || len(rd.On) != 2 || len(rd.Produce) != 2 {
		t.Errorf("reduce = %+v", rd)
	}
}

func TestParseProcess(t *testing.T) {
	s := mustParse(t, `p = PROCESS input USING Cleaner PRODUCE a:long; OUTPUT p TO "o";`)
	pr := s.Statements[0].(*ProcessStmt)
	if pr.UserOp != "Cleaner" || pr.Input != "input" {
		t.Errorf("process = %+v", pr)
	}
}

func TestParseSelectDistinctStar(t *testing.T) {
	s := mustParse(t, `d = SELECT DISTINCT * FROM t; OUTPUT d TO "o";`)
	sel := s.Statements[0].(*SelectStmt)
	if !sel.Distinct || !sel.Items[0].Star {
		t.Errorf("select = %+v", sel)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	s := mustParse(t, `x = SELECT a FROM t WHERE a + b * 2 > 10 AND c == "v" OR NOT d; OUTPUT x TO "o";`)
	sel := s.Statements[0].(*SelectStmt)
	got := sel.Where.String()
	// OR binds loosest, then AND, then NOT, comparisons, then + over *.
	want := `(((a + (b * 2)) > 10) AND (c == "v")) OR NOT d`
	want = "(" + want + ")"
	if got != want {
		t.Errorf("Where = %s, want %s", got, want)
	}
}

func TestParseSymbolicBoolOps(t *testing.T) {
	s := mustParse(t, `x = SELECT a FROM t WHERE a > 1 && b < 2 || !c; OUTPUT x TO "o";`)
	sel := s.Statements[0].(*SelectStmt)
	str := sel.Where.String()
	if !strings.Contains(str, "AND") || !strings.Contains(str, "OR") || !strings.Contains(str, "NOT") {
		t.Errorf("symbolic ops not canonicalized: %s", str)
	}
}

func TestParseQualifiedRefsAndFuncs(t *testing.T) {
	s := mustParse(t, `x = SELECT t.a, SUM(t.b) AS s, floor(t.c) AS f FROM t GROUP BY a; OUTPUT x TO "o";`)
	sel := s.Statements[0].(*SelectStmt)
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if cr, ok := sel.Items[0].Expr.(*ColRef); !ok || cr.Qualifier != "t" || cr.Name != "a" {
		t.Errorf("item 0 = %#v", sel.Items[0].Expr)
	}
	if fe, ok := sel.Items[1].Expr.(*FuncExpr); !ok || fe.Name != "SUM" {
		t.Errorf("item 1 = %#v", sel.Items[1].Expr)
	}
	if fe, ok := sel.Items[2].Expr.(*FuncExpr); !ok || fe.Name != "floor" {
		t.Errorf("scalar func name should keep case: %#v", sel.Items[2].Expr)
	}
}

func TestParseCountStar(t *testing.T) {
	s := mustParse(t, `x = SELECT COUNT(*) AS c FROM t; OUTPUT x TO "o";`)
	sel := s.Statements[0].(*SelectStmt)
	fe := sel.Items[0].Expr.(*FuncExpr)
	if !fe.Star || fe.Name != "COUNT" {
		t.Errorf("count(*) = %#v", fe)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,                                    // empty script
		`x =`,                                 // truncated
		`x = SELECT FROM t;`,                  // missing projection
		`x = SELECT a FROM t`,                 // missing semicolon
		`OUTPUT TO "f";`,                      // missing rowset
		`x = SELECT a FROM t WHERE;`,          // missing predicate
		`x = SELECT a FROM t TOP 0;`,          // bad TOP
		`x = SELECT a FROM t TOP -5;`,         // negative TOP
		`x = EXTRACT FROM "f";`,               // empty schema
		`x = a;`,                              // bare rowset assignment
		`x = SELECT a FROM t JOIN u;`,         // missing ON
		`x = REDUCE t ON k USING R;`,          // missing PRODUCE
		`x = SELECT a FROM t GROUP BY;`,       // empty group by
		`x = SELECT a FROM t ORDER BY;`,       // empty order by
		`x = SELECT a FROM t WHERE (a > 1;`,   // unbalanced paren
		`x = SELECT a FROM t WHERE a > SUM(;`, // bad func args
		`OUTPUT x "f";`,                       // missing TO
		`x = SELECT a, FROM t;`,               // dangling comma
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("x = SELECT a FROM t\nWHERE ;")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 2 {
		t.Errorf("error line = %d, want 2", pe.Line)
	}
}

func TestNormalizedExprWildcardsLiterals(t *testing.T) {
	s := mustParse(t, `x = SELECT a FROM t WHERE a > 100 AND b == "xyz"; OUTPUT x TO "o";`)
	sel := s.Statements[0].(*SelectStmt)
	norm := sel.Where.Normalized()
	if strings.Contains(norm, "100") || strings.Contains(norm, "xyz") {
		t.Errorf("Normalized should wildcard literals: %s", norm)
	}
	if !strings.Contains(norm, "?") {
		t.Errorf("Normalized should contain wildcards: %s", norm)
	}
	if !strings.Contains(norm, "a") || !strings.Contains(norm, "b") {
		t.Errorf("Normalized should keep column names: %s", norm)
	}
}

func TestParsedExprStringStable(t *testing.T) {
	src := `x = SELECT a FROM t WHERE (a > 1) AND (b < 2); OUTPUT x TO "o";`
	s1 := mustParse(t, src)
	s2 := mustParse(t, src)
	w1 := s1.Statements[0].(*SelectStmt).Where.String()
	w2 := s2.Statements[0].(*SelectStmt).Where.String()
	if w1 != w2 {
		t.Errorf("expression String not stable: %q vs %q", w1, w2)
	}
}

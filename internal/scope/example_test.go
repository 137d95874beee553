package scope_test

import (
	"fmt"
	"strings"

	"qoadvisor/internal/scope"
)

// ExampleCompileScript shows the lexer→parser→compiler path from script
// source to a logical operator DAG.
func ExampleCompileScript() {
	src := `
events = EXTRACT uid:long, kind:string, ms:int FROM "store/events.tsv";
slow = SELECT uid, ms FROM events WHERE ms > 500;
byUser = SELECT uid, COUNT(*) AS cnt FROM slow GROUP BY uid;
OUTPUT byUser TO "out/by_user.tsv";
`
	g, err := scope.CompileScript(src)
	if err != nil {
		fmt.Println("compile failed:", err)
		return
	}
	for _, n := range g.Nodes() {
		fmt.Println(n.Label())
	}
	// Output:
	// Scan(store/events.tsv)
	// Filter((ms > 500))
	// Project(uid,ms)
	// Agg(by=uid aggs=COUNT(*))
	// Project(uid,cnt)
	// Output(out/by_user.tsv)
}

// ExampleGraph_TemplateHash demonstrates recurring-job identity: two
// instances with different constants and dated paths share a template.
func ExampleGraph_TemplateHash() {
	day1, _ := scope.CompileScript(`
t = EXTRACT v:int FROM "data/20211103.tsv";
x = SELECT v FROM t WHERE v > 100;
OUTPUT x TO "out/20211103.tsv";`)
	day2, _ := scope.CompileScript(`
t = EXTRACT v:int FROM "data/20211104.tsv";
x = SELECT v FROM t WHERE v > 250;
OUTPUT x TO "out/20211104.tsv";`)
	fmt.Println(day1.TemplateHash() == day2.TemplateHash())
	// Output: true
}

// ExamplePrepared_Bind compiles a recurring script once and binds each
// day's date stamp and constant to it.
func ExamplePrepared_Bind() {
	p, err := scope.Prepare(`
t = EXTRACT v:int FROM "data/@DATE@.tsv";
x = SELECT v FROM t WHERE v > @MIN@;
OUTPUT x TO "out/@DATE@.tsv";`)
	if err != nil {
		fmt.Println("prepare failed:", err)
		return
	}
	for _, day := range [][]string{{"20211103", "100"}, {"20211104", "250"}} {
		g, err := p.Bind([]string{"DATE", "MIN"}, day)
		if err != nil {
			fmt.Println("bind failed:", err)
			return
		}
		var labels []string
		for _, n := range g.Nodes() {
			labels = append(labels, n.Label())
		}
		fmt.Println(strings.Join(labels, " "))
	}
	// Output:
	// Scan(data/20211103.tsv) Filter((v > 100)) Project(v) Output(out/20211103.tsv)
	// Scan(data/20211104.tsv) Filter((v > 250)) Project(v) Output(out/20211104.tsv)
}

// ExampleConjuncts shows predicate decomposition, the unit of selectivity
// bookkeeping throughout the optimizer.
func ExampleConjuncts() {
	s, _ := scope.Parse(`x = SELECT a FROM t WHERE a > 1 AND b == 2 AND c < 3; OUTPUT x TO "o";`)
	pred := s.Statements[0].(*scope.SelectStmt).Where
	for _, c := range scope.Conjuncts(pred) {
		fmt.Println(c)
	}
	// Output:
	// (a > 1)
	// (b == 2)
	// (c < 3)
}

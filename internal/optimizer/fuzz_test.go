package optimizer_test

import (
	"reflect"
	"strings"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// seedScripts are FuzzCompileOptimize's hand-written seeds: between them
// every statement form and clause of the language (UNION and UNION ALL,
// JOIN ... AS in every flavour, GROUP BY ... HAVING, ORDER BY ... TOP,
// DISTINCT, REDUCE, PROCESS, a shared rowset with two consumers, every
// literal type).
var seedScripts = []string{
	// The optimizer tests' own script: filter, aliased join, aggregate
	// with HAVING, ORDER BY ... TOP.
	`logs = EXTRACT uid:long, page:string, dur:int, score:double FROM "data/logs_20211103.tsv";
users = EXTRACT uid:long, region:string, age:int FROM "data/users.tsv";
clicks = SELECT uid, page, dur FROM logs WHERE dur > 100 AND score >= 0.5;
joined = SELECT l.uid, l.dur, u.region FROM clicks AS l JOIN users AS u ON l.uid == u.uid;
agg = SELECT region, COUNT(*) AS cnt, SUM(dur) AS total FROM joined GROUP BY region HAVING COUNT(*) > 10 ORDER BY cnt DESC TOP 100;
OUTPUT agg TO "out/agg.tsv";`,
	// UNION ALL of two filtered extracts, deduplicated, two outputs off
	// one shared rowset.
	`a = EXTRACT k:int, v:double, s:string FROM "in/a_2021/11/03.tsv";
b = EXTRACT k:int, v:double, s:string FROM "in/b_2021/11/03.tsv";
fa = SELECT k, v, s FROM a WHERE v > 1.5 OR s == "x";
u = fa UNION ALL b;
d = SELECT DISTINCT k, s FROM u;
OUTPUT d TO "out/d.tsv";
OUTPUT u TO "out/u.tsv";`,
	// UNION (deduplicating) under an ordered TOP.
	`a = EXTRACT k:int, v:long FROM "in/a.tsv";
b = EXTRACT k:int, v:long FROM "in/b.tsv";
u = a UNION b;
t = SELECT * FROM u ORDER BY v DESC, k TOP 10;
OUTPUT t TO "out/t.tsv";`,
	// REDUCE then PROCESS: the user-defined operators.
	`t = EXTRACT k:int, ts:datetime, ok:bool FROM "in/events.tsv";
f = SELECT k, ts FROM t WHERE ok == true AND NOT k < 0;
r = REDUCE f ON k USING Sessionize PRODUCE k:int, sess:long;
p = PROCESS r USING Enrich PRODUCE k:int, sess:long, extra:double;
OUTPUT p TO "out/p.tsv";`,
	// LEFT and SEMI joins, a computed projection, arithmetic and unary
	// minus.
	`l = EXTRACT a:int, x:float FROM "in/l.tsv";
r = EXTRACT b:int, y:float FROM "in/r.tsv";
s = EXTRACT c:int FROM "in/s.tsv";
j = SELECT a, x, y FROM l LEFT JOIN r ON a == b;
k = SELECT a, x * 2 + -y AS z FROM j SEMI JOIN s ON a == c WHERE x / 3 != 1 AND a % 2 == 0 AND CLAMP(x, 0.5, 9) > 1;
OUTPUT k TO "out/k.tsv";`,
	// A three-way join with a non-equi condition and a global aggregate.
	`f = EXTRACT id:long, cust:long, amt:double FROM "in/fact.tsv";
c = EXTRACT cust:long, seg:string FROM "in/cust.tsv";
g = EXTRACT seg:string, lo:double FROM "in/seg.tsv";
j = SELECT f.id, f.amt, c.seg FROM f JOIN c ON f.cust == c.cust;
jj = SELECT j.id, j.amt FROM j JOIN g ON j.seg == g.seg AND j.amt >= g.lo;
tot = SELECT SUM(amt) AS total, COUNT(*) AS n, MAX(amt) AS hi FROM jj;
OUTPUT tot TO "out/tot.tsv";`,
	// Aggregate over a union, filtered above the aggregate, with MIN/AVG.
	`a = EXTRACT k:string, v:int FROM "in/a.tsv";
b = EXTRACT k:string, v:int FROM "in/b.tsv";
u = a UNION ALL b UNION ALL a;
g = SELECT k, AVG(v) AS m, MIN(v) AS lo FROM u GROUP BY k;
h = SELECT k, m FROM g WHERE m > 10 ORDER BY m;
OUTPUT h TO "out/h.tsv";`,
	// A full outer join feeding a reducer with no partition columns' worth
	// of filtering; right join; nested function call.
	`l = EXTRACT a:int, s:string FROM "in/l.tsv";
r = EXTRACT a2:int, t:string FROM "in/r.tsv";
fo = SELECT a, s, t FROM l FULL OUTER JOIN r ON a == a2;
ro = SELECT a2, t FROM l RIGHT JOIN r ON a == a2 WHERE LEN(UPPER(t)) > 3;
red = REDUCE fo ON a, s USING Collapse PRODUCE a:int, n:long;
OUTPUT red TO "out/red.tsv";
OUTPUT ro TO "out/ro.tsv";`,
	renamedRightFilterScript,
}

// renamedRightFilterScript filters an inner join on a right column the
// join renamed (r.v is r_v above the join): the default configuration
// pushes that conjunct below the join, under the right input's name v.
const renamedRightFilterScript = `l = EXTRACT k:int, v:double FROM "in/l.tsv";
r = EXTRACT k:int, v:double, w:string FROM "in/r.tsv";
j = SELECT l.k, l.v, r.v AS rv, w FROM l JOIN r ON l.k == r.k WHERE r.v > 2.5 AND l.v < 9;
OUTPUT j TO "out/j.tsv";`

// FuzzCompileOptimize feeds arbitrary text to the script compiler and,
// when it compiles, through the optimizer with zero Options under the
// default configuration and under every off-by-default rule as well.
// Nothing may panic; every identity of the compiled and of the rewritten
// graphs equals the fmt-based reference; every predicate and sort key of
// the rewritten graph resolves (unresolvedRefs); the needed-columns analysis
// equals the map-based reference; Optimize returns a plan or a
// *CompileFailure and leaves the compiled graph as it found it; a second
// compilation rewrites the same way and leaves the first's rewritten graph
// as it found it; Estimate fails with Optimize or agrees with it on the
// signature and, bit for bit, the estimated cost, uncached and through
// the cache; and both
// configurations compiled through one cache, the second possibly by the
// first's reuse certificate, equal their uncached compilations.
func FuzzCompileOptimize(f *testing.F) {
	for _, s := range seedScripts {
		f.Add(s)
	}
	cat := rules.NewCatalog()
	configs := []rules.Config{cat.DefaultConfig(), withEveryOffRule(cat)}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := scope.CompileScript(src)
		if err != nil {
			return
		}
		checkIdentity(t, "compiled", g)
		before := renderGraph(g)
		for _, cfg := range configs {
			if _, diffs := optimizer.CheckNeededColumns(g, cfg, cat, nil); len(diffs) > 0 {
				t.Fatalf("needed columns differ from the map-based reference:\n%s", strings.Join(diffs, "\n"))
			}
			res, err := optimizer.Optimize(g, cfg, optimizer.Options{})
			if after := renderGraph(g); after != before {
				t.Fatalf("Optimize changed its input graph:\n%s\nwas\n%s", after, before)
			}
			sig, cost, estErr := optimizer.Estimate(g, cfg, optimizer.Options{})
			if diff := sameEstimate(sig, cost, estErr, res, err); diff != "" {
				t.Fatalf("Estimate differs from Optimize: %s", diff)
			}
			if err != nil {
				if !optimizer.IsCompileFailure(err) {
					t.Fatalf("Optimize: %v (%T), want a plan or a *CompileFailure", err, err)
				}
				continue
			}
			if res.Plan == nil || len(res.Plan.Roots) == 0 {
				t.Fatal("Optimize returned neither a plan nor an error")
			}
			checkIdentity(t, "rewritten", res.Logical)
			if bad := unresolvedRefs(res.Logical); len(bad) > 0 {
				t.Fatalf("unresolved references after the rewrite:\n%s", strings.Join(bad, "\n"))
			}
			logical := renderGraph(res.Logical)
			again, err := optimizer.Optimize(g, cfg, optimizer.Options{})
			if err != nil {
				t.Fatalf("a second compilation failed: %v", err)
			}
			if got := renderGraph(res.Logical); got != logical {
				t.Fatalf("a second compilation changed the first's rewritten graph:\n%s\nwas\n%s", got, logical)
			}
			if got := renderGraph(again.Logical); got != logical {
				t.Fatalf("a second compilation rewrote differently:\n%s\nfirst\n%s", got, logical)
			}
		}
		checkCertifiedCompile(t, g, configs)
	})
}

// TestOptimizeZeroOptions: Options documents every field as optional. A nil
// Stats knows no table, exactly like an empty MapStats, and a nil Catalog
// is the canonical one. Run over every fuzz seed, which also proves each
// seed compiles.
func TestOptimizeZeroOptions(t *testing.T) {
	cat := rules.NewCatalog()
	for i, src := range seedScripts {
		g, err := scope.CompileScript(src)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		got, err := optimizer.Optimize(g, cat.DefaultConfig(), optimizer.Options{})
		if err != nil {
			t.Fatalf("seed %d: zero Options: %v", i, err)
		}
		want, err := optimizer.Optimize(g, cat.DefaultConfig(), optimizer.Options{Catalog: cat, Stats: optimizer.MapStats{}})
		if err != nil {
			t.Fatalf("seed %d: empty stats: %v", i, err)
		}
		if got.EstCost != want.EstCost || !got.Signature.Equal(want.Signature.Bitset) {
			t.Errorf("seed %d: cost %v signature %v, with empty stats %v %v", i,
				got.EstCost, got.Signature.Bits(), want.EstCost, want.Signature.Bits())
		}
		if !reflect.DeepEqual(got.Plan, want.Plan) {
			t.Errorf("seed %d: plan differs from the one compiled with empty stats", i)
		}
	}
}

package optimizer_test

import (
	"fmt"
	"strings"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/span"
	"qoadvisor/internal/workload"
)

// ledgerTemplates is the population the benchmark's offline leg runs
// (cmd/qobench pipeline_day at its default size): the identities pinned
// here are the ones its SIS-file hash depends on.
func ledgerTemplates(t testing.TB) []*workload.Template {
	t.Helper()
	gen, err := workload.New(workload.Config{Seed: 20211101, NumTemplates: 222})
	if err != nil {
		t.Fatal(err)
	}
	return gen.Templates()
}

// withEveryOffRule is the default configuration plus every off-by-default
// rule: the widest rewrite the span computation explores.
func withEveryOffRule(cat *rules.Catalog) rules.Config {
	cfg := cat.DefaultConfig()
	for _, r := range cat.Rules(rules.OffByDefault) {
		cfg.Set(r.ID)
	}
	return cfg
}

// eachExpr calls f on every expression hanging off n, subexpressions
// included.
func eachExpr(n *scope.Node, f func(scope.Expr)) {
	var walk func(e scope.Expr)
	walk = func(e scope.Expr) {
		if e == nil {
			return
		}
		f(e)
		switch x := e.(type) {
		case *scope.BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *scope.UnaryExpr:
			walk(x.Expr)
		case *scope.FuncExpr:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(n.Pred)
	walk(n.JoinCond)
	for _, p := range n.Projs {
		walk(p.E)
	}
	for _, a := range n.Aggs {
		walk(a.Arg)
	}
	for _, k := range n.SortKeys {
		walk(k.Col)
	}
}

// checkIdentity holds every identity of g — per node the fingerprint, the
// site key and the gate derived from them, per expression both renderings,
// and the graph's template hash — to the fmt-based reference.
func checkIdentity(t testing.TB, what string, g *scope.Graph) {
	t.Helper()
	if got, want := g.TemplateHash(), refTemplateHash(g); got != want {
		t.Errorf("%s: TemplateHash = %016x, reference %016x", what, got, want)
	}
	for _, n := range g.Nodes() {
		if got, want := n.Fingerprint(), refFingerprint(n); got != want {
			t.Errorf("%s: node #%d %s: Fingerprint = %016x, reference %016x", what, n.ID, n.Kind, got, want)
		}
		if got, want := string(n.AppendSiteKey(nil)), refSiteKey(n); got != want {
			t.Errorf("%s: node #%d %s: SiteKey = %q, reference %q", what, n.ID, n.Kind, got, want)
		}
		if got, want := optimizer.Gate(n), refGate(n); got != want {
			t.Errorf("%s: node #%d %s: gate = %016x, reference %016x", what, n.ID, n.Kind, got, want)
		}
		for _, a := range n.Aggs {
			if got, want := a.String(), refAggString(a); got != want {
				t.Errorf("%s: node #%d: AggSpec.String = %q, reference %q", what, n.ID, got, want)
			}
		}
		eachExpr(n, func(e scope.Expr) {
			if got, want := e.String(), refString(e); got != want {
				t.Errorf("%s: node #%d: String = %q, reference %q", what, n.ID, got, want)
			}
			if got, want := e.Normalized(), refNormalized(e); got != want {
				t.Errorf("%s: node #%d: Normalized = %q, reference %q", what, n.ID, got, want)
			}
		})
	}
}

// TestIdentityMatchesReference: on every ledger template, the compiled
// graph and the graphs the optimizer rewrites it into carry exactly the
// identities the fmt-based code gave them.
func TestIdentityMatchesReference(t *testing.T) {
	cat := rules.NewCatalog()
	configs := []struct {
		name string
		cfg  rules.Config
	}{
		{"default", cat.DefaultConfig()},
		{"default+off", withEveryOffRule(cat)},
	}
	rewritten := 0
	for _, tpl := range ledgerTemplates(t) {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentity(t, tpl.ID+" compiled", job.Graph)
		for _, c := range configs {
			res, err := optimizer.Optimize(job.Graph, c.cfg, optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens})
			if err != nil {
				if !optimizer.IsCompileFailure(err) {
					t.Fatalf("%s under %s: %v", tpl.ID, c.name, err)
				}
				continue // experimental rules reject a slice of plan shapes
			}
			rewritten++
			checkIdentity(t, tpl.ID+" rewritten under "+c.name, res.Logical)
		}
		if t.Failed() {
			return // one template's worth of mismatches is enough to read
		}
	}
	t.Logf("%d of 444 rewrites compiled", rewritten)
	if rewritten < 300 {
		t.Errorf("only %d of 444 rewrites compiled; the test lost its coverage", rewritten)
	}
}

// TestApplyTuningEquivalence: the one-pass tuning loop leaves every
// physical node and the signature exactly as the rules × nodes loop it
// replaced, under the default configuration and under every single tuning
// flip of each template's span.
func TestApplyTuningEquivalence(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	isTuning := func(id int) bool {
		k := cat.Rule(id).Kind
		return k >= rules.KindTunePartitionCount && k <= rules.KindTuneBroadcastThreshold
	}
	compared, tuned := 0, 0
	for _, tpl := range ledgerTemplates(t) {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
		sp, err := span.Compute(job.Graph, cat, opts)
		if err != nil {
			t.Fatalf("%s: span: %v", tpl.ID, err)
		}
		configs := []rules.Config{def}
		for _, id := range sp.Span.Bits() {
			if isTuning(id) {
				configs = append(configs, def.WithFlip(cat.FlipFor(id)))
			}
		}
		for _, cfg := range configs {
			got, err := optimizer.Optimize(job.Graph, cfg, opts)
			if err != nil {
				continue // a rejected flip has no plan to compare
			}
			want, err := optimizer.OptimizeTuningByRule(job.Graph, cfg, opts)
			if err != nil {
				t.Fatalf("%s %v: reference failed where Optimize succeeded: %v", tpl.ID, cfg, err)
			}
			compared++
			if !got.Signature.Equal(want.Signature.Bitset) {
				t.Errorf("%s %v: signature %v, reference %v", tpl.ID, cfg, got.Signature.Bits(), want.Signature.Bits())
			}
			if got.EstCost != want.EstCost || got.Plan.EstVertices != want.Plan.EstVertices {
				t.Errorf("%s %v: cost %v / %d vertices, reference %v / %d", tpl.ID, cfg,
					got.EstCost, got.Plan.EstVertices, want.EstCost, want.Plan.EstVertices)
			}
			gn, wn := got.Plan.Nodes(), want.Plan.Nodes()
			if len(gn) != len(wn) {
				t.Fatalf("%s %v: %d physical nodes, reference %d", tpl.ID, cfg, len(gn), len(wn))
			}
			for i, g := range gn {
				w := wn[i]
				if g.Partitions != w.Partitions || g.PackFactor != w.PackFactor || g.Fused != w.Fused ||
					g.Compress != w.Compress || g.PartScheme != w.PartScheme {
					t.Errorf("%s %v: node %d %s: partitions/pack/fused/compress/scheme %d %v %v %v %q, reference %d %v %v %v %q",
						tpl.ID, cfg, i, g.Op,
						g.Partitions, g.PackFactor, g.Fused, g.Compress, g.PartScheme,
						w.Partitions, w.PackFactor, w.Fused, w.Compress, w.PartScheme)
				}
				if g.Fused || g.Compress || g.PackFactor != 1 {
					tuned++
				}
			}
		}
	}
	t.Logf("%d compilations compared, %d tuned nodes", compared, tuned)
	if compared < 222 || tuned == 0 {
		t.Errorf("compared %d compilations with %d tuned nodes; the test lost its coverage", compared, tuned)
	}
}

// TestNeededColumnsMatchReference: the bit-row needed-columns analysis
// equals the map-based one it replaced, at both points a compilation runs
// it, on every ledger template under the default configuration, under
// every off-by-default rule at once, and under every single flip of the
// template's span (a flip outside the span compiles as the default does).
func TestNeededColumnsMatchReference(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	rewrites, sets := 0, 0
	for _, tpl := range ledgerTemplates(t) {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := span.Compute(job.Graph, cat, optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens})
		if err != nil {
			t.Fatalf("%s: span: %v", tpl.ID, err)
		}
		configs := []rules.Config{def, withEveryOffRule(cat)}
		for _, id := range sp.Span.Bits() {
			configs = append(configs, def.WithFlip(cat.FlipFor(id)))
		}
		for _, cfg := range configs {
			n, diffs := optimizer.CheckNeededColumns(job.Graph, cfg, cat, job.Stats)
			rewrites++
			sets += n
			for _, d := range diffs {
				t.Errorf("%s %v: %s", tpl.ID, cfg, d)
			}
		}
		if t.Failed() {
			return // one template's worth of mismatches is enough to read
		}
	}
	t.Logf("%d rewrites, %d column sets compared", rewrites, sets)
	if rewrites < 2*222 || sets < 20*rewrites {
		t.Errorf("compared %d sets over %d rewrites; the test lost its coverage", sets, rewrites)
	}
}

// TestNeededColumnsWideSchema drives the analysis past 64 distinct column
// names, where a column set outgrows one machine word and every row of
// the bit matrix is widened in place.
func TestNeededColumnsWideSchema(t *testing.T) {
	var cols [2][]string
	for side, prefix := range []string{"a", "b"} {
		for i := 0; i < 70; i++ {
			cols[side] = append(cols[side], fmt.Sprintf("%s%d", prefix, i))
		}
	}
	src := "l = EXTRACT " + strings.Join(cols[0], ":int, ") + ":int FROM \"in/l.tsv\";\n" +
		"r = EXTRACT " + strings.Join(cols[1], ":int, ") + ":int FROM \"in/r.tsv\";\n" +
		"j = SELECT " + strings.Join(cols[0][:40], ", ") + ", " + strings.Join(cols[1][30:], ", ") +
		" FROM l JOIN r ON a0 == b0 WHERE a69 > 1 AND b1 < 2;\n" +
		"g = SELECT a1, SUM(b69) AS s FROM j GROUP BY a1;\n" +
		"OUTPUT j TO \"out/j.tsv\";\nOUTPUT g TO \"out/g.tsv\";\n"
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	for _, cfg := range []rules.Config{cat.DefaultConfig(), withEveryOffRule(cat)} {
		n, diffs := optimizer.CheckNeededColumns(g, cfg, cat, nil)
		if n == 0 {
			t.Error("no column set compared")
		}
		for _, d := range diffs {
			t.Error(d)
		}
	}
}

// TestLoweringAllocBudget: on a warm builder, partScheme allocates
// nothing for a keyed scheme it has interned, and publishing a finished
// plan allocates its Result and slabs only, on each of the first 40
// ledger templates. Everything before publish — lowering, tuning, stage
// assignment, costing — runs in the builder's scratch and allocates
// nothing warm (TestEstimateAllocBudget).
func TestLoweringAllocBudget(t *testing.T) {
	cat := rules.NewCatalog()
	var scheme float64
	budget.Gate(t, "optimizer.lowering.publish", func() float64 {
		keyed, publish := 0, 0.0
		for _, tpl := range ledgerTemplates(t)[:40] {
			j, err := tpl.Instantiate(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, p, n, err := optimizer.LoweringAllocs(j.Graph, cat.DefaultConfig(), optimizer.Options{Catalog: cat, Stats: j.Stats, Tokens: j.Tokens})
			if err != nil {
				t.Fatal(err)
			}
			keyed, scheme, publish = keyed+n, max(scheme, s), max(publish, p)
		}
		if keyed == 0 {
			t.Fatal("no ledger plan has a keyed exchange; the scheme check lost its coverage")
		}
		return publish
	})
	budget.Gate(t, "optimizer.lowering.scheme", func() float64 { return scheme })
}

// TestOptimizeAllocBudget gates what one compilation allocates — the
// offline pipeline's budget is this number times its recompilations — on
// the first ledger template with three outputs, under the default
// configuration: uncached (rewrite + lowering) and through the job's
// warm rewrite memo (lowering only); and on renamedRightFilterScript
// uncached, whose default rewrite must fire PushFilterBelowJoin.
func TestOptimizeAllocBudget(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	job := threeOutputJob(t)
	renamed, err := scope.CompileScript(renamedRightFilterScript)
	if err != nil {
		t.Fatal(err)
	}
	compile := func(g *scope.Graph, opts optimizer.Options) func() {
		f := func() {
			if _, err := optimizer.Optimize(g, def, opts); err != nil {
				t.Fatal(err)
			}
		}
		f() // warm the cache, the template hash and the runtime
		return f
	}
	res, err := optimizer.Optimize(renamed, def, optimizer.Options{})
	if err != nil || !firesKind(cat, res.Signature, rules.KindPushFilterBelowJoin) {
		t.Fatalf("the default rewrite of renamedRightFilterScript does not fire PushFilterBelowJoin (%v)", err)
	}
	budget.Allocs(t, "optimizer.optimize.uncached", 50, compile(job.Graph, optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}))
	budget.Allocs(t, "optimizer.optimize.warm", 50, compile(job.Graph, job.CompileOptions(cat)))
	budget.Allocs(t, "optimizer.optimize.rename", 50, compile(renamed, optimizer.Options{}))
}

// threeOutputJob instantiates the first ledger template with three
// outputs (T001), on which the compilation allocation gates are measured.
func threeOutputJob(t testing.TB) *workload.Job {
	t.Helper()
	for _, tpl := range ledgerTemplates(t) {
		j, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(j.Graph.Roots) == 3 {
			return j
		}
	}
	t.Fatal("no three-output template in the ledger population")
	return nil
}

// firesKind reports whether sig holds a rule of kind k.
func firesKind(cat *rules.Catalog, sig rules.Signature, k rules.Kind) bool {
	for _, r := range cat.OfKind(k) {
		if sig.Fired(r.ID) {
			return true
		}
	}
	return false
}

// renderPlan is a plan's String plus every stage's node IDs, upstream
// stage IDs and parallelism.
func renderPlan(p *optimizer.Plan) string {
	var sb strings.Builder
	sb.WriteString(p.String())
	for _, s := range p.Stages {
		fmt.Fprintf(&sb, "stage %d x%d nodes", s.ID, s.Partitions)
		for _, n := range s.Nodes {
			fmt.Fprintf(&sb, " #%d", n.ID)
		}
		fmt.Fprintf(&sb, " inputs %v\n", s.InputIDs)
	}
	return sb.String()
}

// TestRewrittenGraphOwnsItsMemory: a rewrite works on a copy in its
// pooled rewriter's scratch, which the next rewrite reuses, so the
// rewritten graph a Result keeps must share none of it. Once the scratch
// has grown on all 51 ledger jobs compiled without a cache, so that every
// compilation rewrites, job 0's rewritten graph is rendered, the 50 others
// are compiled on the same goroutine, and the first graph must render
// byte for byte as before. It must also render as the rewrite whose
// working copy is a heap Clone, which no later rewrite reuses.
func TestRewrittenGraphOwnsItsMemory(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	var jobs []*workload.Job
	for _, tpl := range ledgerTemplates(t)[:51] {
		j, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	opts := func(j *workload.Job) optimizer.Options {
		return optimizer.Options{Catalog: cat, Stats: j.Stats, Tokens: j.Tokens}
	}
	compile := func(j *workload.Job) (*optimizer.Result, error) {
		return optimizer.Optimize(j.Graph, def, opts(j))
	}
	for _, j := range jobs {
		compile(j) // grow the pooled scratch, so later rewrites reuse it
	}
	first, err := compile(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := renderGraph(first.Logical)
	heap, err := optimizer.RewriteOnHeap(jobs[0].Graph, def, opts(jobs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if ref := renderGraph(heap); want != ref {
		t.Fatalf("%s's rewrite differs from its rewrite on a heap working copy:\n--- pooled\n%s--- heap\n%s", jobs[0].Template.ID, want, ref)
	}
	compiled := 0
	for _, j := range jobs[1:] {
		if _, err := compile(j); err == nil {
			compiled++
		}
	}
	if compiled < 40 {
		t.Fatalf("only %d of 50 later jobs compiled", compiled)
	}
	if got := renderGraph(first.Logical); got != want {
		t.Errorf("%s's rewritten graph changed while %d later jobs were compiled:\n--- before\n%s--- after\n%s", jobs[0].Template.ID, compiled, want, got)
	}
}

// TestPublishedPlanOwnsItsMemory: lowering runs on a pooled builder whose
// scratch the next compilation reuses, so a returned plan must share none
// of it. Once the builder's scratch has grown to fit all 51 ledger jobs,
// one job's plan is rendered, the 50 others are compiled on the same
// goroutine, and the first plan must render byte for byte as before. It
// must also render as the job lowered on a builder of its own, which is
// never pooled and so never cleared: a plan pointing into scratch the
// pool clears would otherwise render the same cleared nodes twice.
func TestPublishedPlanOwnsItsMemory(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	var jobs []*workload.Job
	for _, tpl := range ledgerTemplates(t)[:51] {
		j, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	compile := func(j *workload.Job) (*optimizer.Result, error) {
		return optimizer.Optimize(j.Graph, def, j.CompileOptions(cat))
	}
	for _, j := range jobs {
		compile(j) // grow the pooled scratch, so later builds reuse it
	}
	first, err := compile(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := renderPlan(first.Plan)
	own, err := optimizer.OptimizeTuningByRule(jobs[0].Graph, def, optimizer.Options{Catalog: cat, Stats: jobs[0].Stats, Tokens: jobs[0].Tokens})
	if err != nil {
		t.Fatal(err)
	}
	if ref := renderPlan(own.Plan); want != ref {
		t.Fatalf("%s's plan differs from its lowering on a builder of its own:\n--- pooled\n%s--- own\n%s", jobs[0].Template.ID, want, ref)
	}
	compiled := 0
	for _, j := range jobs[1:] {
		if _, err := compile(j); err == nil {
			compiled++
		}
	}
	if compiled < 40 {
		t.Fatalf("only %d of 50 later jobs compiled", compiled)
	}
	if got := renderPlan(first.Plan); got != want {
		t.Errorf("%s's plan changed while %d later jobs were compiled:\n--- before\n%s--- after\n%s", jobs[0].Template.ID, compiled, want, got)
	}
}

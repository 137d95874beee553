package optimizer_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/span"
)

// renderGraph renders every field of every reachable node of g: the
// inputs by ID, the schema with types and sources, every payload, and
// expressions as typed trees (so that 5 and 5.0, or a rebuilt spine with
// another operator, render differently). Two renderings are equal exactly
// when nothing a consumer of the graph can observe has changed.
func renderGraph(g *scope.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "bound %d roots", g.IDBound())
	for _, r := range g.Roots {
		fmt.Fprintf(&b, " #%d", r.ID)
	}
	b.WriteByte('\n')
	cols := func(name string, cs []scope.Column) {
		fmt.Fprintf(&b, " %s[", name)
		for _, c := range cs {
			fmt.Fprintf(&b, "%s:%s:%q ", c.Name, c.Type, c.Source)
		}
		b.WriteByte(']')
	}
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "#%d %s in[", n.ID, n.Kind)
		for _, in := range n.Inputs {
			fmt.Fprintf(&b, "%d ", in.ID)
		}
		b.WriteByte(']')
		cols("cols", n.Cols)
		fmt.Fprintf(&b, " path=%q width=%d pred=%s join=%s cond=%s",
			n.TablePath, n.BaseWidth, exprTree(n.Pred), n.JoinType, exprTree(n.JoinCond))
		b.WriteString(" projs[")
		for _, p := range n.Projs {
			fmt.Fprintf(&b, "%s=%s ", p.Name, exprTree(p.E))
		}
		b.WriteByte(']')
		cols("groupBy", n.GroupBy)
		b.WriteString(" aggs[")
		for _, a := range n.Aggs {
			fmt.Fprintf(&b, "%s:%s(%s,star=%v) ", a.Name, a.Func, exprTree(a.Arg), a.Star)
		}
		b.WriteString("] sort[")
		for _, k := range n.SortKeys {
			fmt.Fprintf(&b, "%s,desc=%v ", exprTree(k.Col), k.Desc)
		}
		fmt.Fprintf(&b, "] partial=%v top=%d out=%q udo=%q broadcast=%v buildLeft=%v renames[",
			n.Partial, n.TopN, n.OutPath, n.UserOp, n.BroadcastRight, n.BuildLeft)
		merged := make([]string, 0, len(n.RightRenames))
		for m := range n.RightRenames {
			merged = append(merged, m)
		}
		slices.Sort(merged)
		for _, m := range merged {
			fmt.Fprintf(&b, "%s<-%s ", m, n.RightRenames[m])
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// exprTree renders e with the Go type of every node spelled out.
func exprTree(e scope.Expr) string {
	switch x := e.(type) {
	case nil:
		return "nil"
	case *scope.ColRef:
		return "col(" + x.Qualifier + "." + x.Name + ")"
	case *scope.IntLit:
		return "int(" + strconv.FormatInt(x.Value, 10) + ")"
	case *scope.FloatLit:
		return "float(" + strconv.FormatFloat(x.Value, 'g', -1, 64) + ")"
	case *scope.StringLit:
		return "string(" + strconv.Quote(x.Value) + ")"
	case *scope.BoolLit:
		return "bool(" + strconv.FormatBool(x.Value) + ")"
	case *scope.BinaryExpr:
		return "bin(" + x.Op + "," + exprTree(x.Left) + "," + exprTree(x.Right) + ")"
	case *scope.UnaryExpr:
		return "un(" + x.Op + "," + exprTree(x.Expr) + ")"
	case *scope.FuncExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = exprTree(a)
		}
		return fmt.Sprintf("fn(%s,star=%v,%s)", x.Name, x.Star, strings.Join(args, ","))
	default:
		return fmt.Sprintf("%T(%s)", e, e)
	}
}

// TestOptimizeLeavesInputIntact: Optimize never writes into the graph it
// is given — no field of any node, and no slice, map or expression a node
// reaches — on every ledger template, under the default configuration,
// every off-by-default rule at once, and every single flip of the
// template's span (a flip outside the span compiles as the default does).
// Job graphs are shared between instances, caches and goroutines, so a
// rewrite that wrote through a slice it shares with its input would
// corrupt every later compilation of the job.
func TestOptimizeLeavesInputIntact(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	compiled := 0
	for _, tpl := range ledgerTemplates(t) {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := renderGraph(job.Graph)
		opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
		sp, err := span.Compute(job.Graph, cat, opts)
		if err != nil {
			t.Fatalf("%s: span: %v", tpl.ID, err)
		}
		configs := []rules.Config{def, withEveryOffRule(cat)}
		for _, id := range sp.Span.Bits() {
			configs = append(configs, def.WithFlip(cat.FlipFor(id)))
		}
		for _, cfg := range configs {
			if _, err := optimizer.Optimize(job.Graph, cfg, opts); err == nil {
				compiled++
			}
			if after := renderGraph(job.Graph); after != before {
				t.Fatalf("%s %v: Optimize changed its input graph:\n%s\nwas\n%s", tpl.ID, cfg, after, before)
			}
		}
	}
	t.Logf("%d compilations left their input intact", compiled)
	if compiled < 2*222 {
		t.Errorf("only %d compilations succeeded; the test lost its coverage", compiled)
	}
}

package optimizer_test

// The fmt-based plan-identity code as it stood before identity became a
// compatibility surface, kept as the reference the allocation-free
// implementation in internal/scope is held to, bit for bit. Only the
// receivers changed (methods became functions over the exported fields, an
// Expr's method set became a type switch): every format verb, separator
// and traversal order is the original's. Do not "modernise" this file.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"qoadvisor/internal/scope"
)

func refString(e scope.Expr) string {
	switch x := e.(type) {
	case *scope.ColRef:
		if x.Qualifier != "" {
			return x.Qualifier + "." + x.Name
		}
		return x.Name
	case *scope.IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *scope.FloatLit:
		return fmt.Sprintf("%g", x.Value)
	case *scope.StringLit:
		return fmt.Sprintf("%q", x.Value)
	case *scope.BoolLit:
		return fmt.Sprintf("%t", x.Value)
	case *scope.BinaryExpr:
		return "(" + refString(x.Left) + " " + x.Op + " " + refString(x.Right) + ")"
	case *scope.UnaryExpr:
		return x.Op + " " + refString(x.Expr)
	case *scope.FuncExpr:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = refString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	}
	panic(fmt.Sprintf("refString: unknown expression type %T", e))
}

func refNormalized(e scope.Expr) string {
	switch x := e.(type) {
	case *scope.ColRef:
		return refString(x)
	case *scope.IntLit, *scope.FloatLit, *scope.StringLit, *scope.BoolLit:
		return "?"
	case *scope.BinaryExpr:
		return "(" + refNormalized(x.Left) + " " + x.Op + " " + refNormalized(x.Right) + ")"
	case *scope.UnaryExpr:
		return x.Op + " " + refNormalized(x.Expr)
	case *scope.FuncExpr:
		if x.Star {
			return x.Name + "(*)"
		}
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = refNormalized(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	}
	panic(fmt.Sprintf("refNormalized: unknown expression type %T", e))
}

func refAggString(a scope.AggSpec) string {
	if a.Star {
		return a.Func + "(*)"
	}
	return a.Func + "(" + refString(a.Arg) + ")"
}

func refSortKeysString(keys []scope.SortKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = refString(k.Col) + " " + dir
	}
	return strings.Join(parts, ",")
}

func refFingerprint(n *scope.Node) uint64 {
	h := fnv.New64a()
	var write func(x *scope.Node)
	seen := make(map[*scope.Node]bool)
	write = func(x *scope.Node) {
		if seen[x] {
			fmt.Fprintf(h, "^")
			return
		}
		seen[x] = true
		fmt.Fprintf(h, "%s|", x.Kind)
		switch x.Kind {
		case scope.OpScan:
			fmt.Fprintf(h, "%s", x.TablePath)
		case scope.OpFilter:
			fmt.Fprintf(h, "%s", refNormalized(x.Pred))
		case scope.OpJoin:
			fmt.Fprintf(h, "%s:%s", x.JoinType, refNormalized(x.JoinCond))
		case scope.OpAgg:
			for _, c := range x.GroupBy {
				fmt.Fprintf(h, "%s,", c.Name)
			}
			for _, a := range x.Aggs {
				fmt.Fprintf(h, "%s,", refAggString(a))
			}
		case scope.OpProject:
			for _, p := range x.Projs {
				fmt.Fprintf(h, "%s,", p.Name)
			}
		case scope.OpSort, scope.OpTop:
			fmt.Fprintf(h, "%s:%d", refSortKeysString(x.SortKeys), x.TopN)
		case scope.OpOutput:
			fmt.Fprintf(h, "%s", x.OutPath)
		case scope.OpReduce, scope.OpProcess:
			fmt.Fprintf(h, "%s", x.UserOp)
		}
		fmt.Fprintf(h, "(")
		for _, in := range x.Inputs {
			write(in)
		}
		fmt.Fprintf(h, ")")
	}
	write(n)
	return h.Sum64()
}

func refTemplateHash(g *scope.Graph) uint64 {
	h := fnv.New64a()
	for _, n := range g.Nodes() {
		fmt.Fprintf(h, "%s|", n.Kind)
		switch n.Kind {
		case scope.OpScan:
			fmt.Fprintf(h, "%s", refNormalizePath(n.TablePath))
		case scope.OpFilter:
			fmt.Fprintf(h, "%s", refNormalized(n.Pred))
		case scope.OpJoin:
			fmt.Fprintf(h, "%s:%s", n.JoinType, refNormalized(n.JoinCond))
		case scope.OpAgg:
			for _, c := range n.GroupBy {
				fmt.Fprintf(h, "%s,", c.Name)
			}
		case scope.OpOutput:
			fmt.Fprintf(h, "%s", refNormalizePath(n.OutPath))
		case scope.OpReduce, scope.OpProcess:
			fmt.Fprintf(h, "%s", n.UserOp)
		}
		fmt.Fprintf(h, ";")
	}
	return h.Sum64()
}

func refNormalizePath(p string) string {
	var sb strings.Builder
	inDigits := false
	for i := 0; i < len(p); i++ {
		if p[i] >= '0' && p[i] <= '9' {
			if !inDigits {
				sb.WriteByte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		sb.WriteByte(p[i])
	}
	return sb.String()
}

func refSiteKey(n *scope.Node) string {
	switch n.Kind {
	case scope.OpFilter:
		return "filter:" + refString(n.Pred)
	case scope.OpJoin:
		return "join:" + refString(n.JoinCond)
	case scope.OpAgg:
		keys := make([]string, len(n.GroupBy))
		for i, c := range n.GroupBy {
			keys[i] = c.Name
		}
		sort.Strings(keys)
		return "agg:" + strings.Join(keys, ",")
	case scope.OpDistinct:
		names := make([]string, len(n.Cols))
		for i, c := range n.Cols {
			names[i] = c.Name
		}
		return "distinct:" + strings.Join(names, ",")
	case scope.OpReduce:
		return "reduce:" + n.UserOp
	case scope.OpProcess:
		return "process:" + n.UserOp
	case scope.OpScan:
		return "scan:" + n.TablePath
	default:
		return ""
	}
}

// refGate is optimizer.gate as it stood: the site key through a heap
// hasher when the node has one, else the structural fingerprint.
func refGate(n *scope.Node) uint64 {
	if k := refSiteKey(n); k != "" {
		h := fnv.New64a()
		h.Write([]byte(k))
		return h.Sum64()
	}
	return refFingerprint(n)
}

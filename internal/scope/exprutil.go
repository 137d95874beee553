package scope

import "slices"

// AppendConjuncts splits an expression on top-level ANDs, appending the
// conjuncts to dst in source order. A non-AND expression is its own
// single conjunct. Conjunct identity is what keeps filter-merge and
// filter-split rewrites cardinality-neutral: the engine estimates each
// conjunct independently.
func AppendConjuncts(dst []Expr, e Expr) []Expr {
	if be, ok := e.(*BinaryExpr); ok && be.Op == "AND" {
		return AppendConjuncts(AppendConjuncts(dst, be.Left), be.Right)
	}
	return append(dst, e)
}

// AndAll combines expressions with AND. It returns nil for an empty list
// and the sole expression for a singleton.
func AndAll(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinaryExpr{Op: "AND", Left: out, Right: e}
	}
	return out
}

// findParam returns the first placeholder in e, or nil.
func findParam(e Expr) *Param {
	switch x := e.(type) {
	case *Param:
		return x
	case *BinaryExpr:
		if p := findParam(x.Left); p != nil {
			return p
		}
		return findParam(x.Right)
	case *UnaryExpr:
		return findParam(x.Expr)
	case *FuncExpr:
		for _, a := range x.Args {
			if p := findParam(a); p != nil {
				return p
			}
		}
	}
	return nil
}

// RefNames returns the set of column names referenced by e.
func RefNames(e Expr) map[string]bool {
	out := make(map[string]bool)
	for _, r := range CollectColRefs(e, nil) {
		out[r.Name] = true
	}
	return out
}

// MapRefs returns e with every column reference that to maps replaced by
// the expression to returns for its name; a reference to does not map,
// or maps to an equal reference (same qualifier and name, as a
// pass-through projection's column does), is kept. It copies only the
// spine above a replaced reference: a subtree with none is e's own,
// shared, so an identity mapping returns e itself, and e is never
// mutated — expressions are immutable once built, as Graph.Clone's
// sharing of them assumes.
func MapRefs(e Expr, to func(name string) (Expr, bool)) Expr {
	switch x := e.(type) {
	case *ColRef:
		if r, ok := to(x.Name); ok {
			if c, isRef := r.(*ColRef); isRef && *c == *x {
				return e
			}
			return r
		}
	case *BinaryExpr:
		l, r := MapRefs(x.Left, to), MapRefs(x.Right, to)
		if l != x.Left || r != x.Right {
			return &BinaryExpr{Op: x.Op, Left: l, Right: r}
		}
	case *UnaryExpr:
		if in := MapRefs(x.Expr, to); in != x.Expr {
			return &UnaryExpr{Op: x.Op, Expr: in}
		}
	case *FuncExpr:
		for i, a := range x.Args {
			if m := MapRefs(a, to); m != a {
				args := slices.Clone(x.Args)
				args[i] = m
				for j := i + 1; j < len(args); j++ {
					args[j] = MapRefs(args[j], to)
				}
				return &FuncExpr{Name: x.Name, Args: args, Star: x.Star}
			}
		}
	}
	return e
}

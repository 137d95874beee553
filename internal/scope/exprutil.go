package scope

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

// RenameRefs returns a copy of e with column references renamed through
// mapping; names missing from the mapping are kept. The input expression
// is never mutated.
func RenameRefs(e Expr, mapping map[string]string) Expr {
	switch x := e.(type) {
	case *ColRef:
		if to, ok := mapping[x.Name]; ok {
			return &ColRef{Name: to}
		}
		return &ColRef{Name: x.Name}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: RenameRefs(x.Left, mapping), Right: RenameRefs(x.Right, mapping)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: RenameRefs(x.Expr, mapping)}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, RenameRefs(a, mapping))
		}
		return out
	default:
		return e
	}
}

// SubstituteRefs returns a copy of e with column references replaced by
// the mapped expressions; names missing from the mapping are kept as
// references. Used to move predicates through projections.
func SubstituteRefs(e Expr, mapping map[string]Expr) Expr {
	switch x := e.(type) {
	case *ColRef:
		if to, ok := mapping[x.Name]; ok {
			return to
		}
		return &ColRef{Name: x.Name}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: SubstituteRefs(x.Left, mapping), Right: SubstituteRefs(x.Right, mapping)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: SubstituteRefs(x.Expr, mapping)}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, SubstituteRefs(a, mapping))
		}
		return out
	default:
		return e
	}
}

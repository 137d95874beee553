package scope

// SpineBound is Prepare's bound on the expression spine copies a binding
// of p makes: the size of Bind's one slab of them.
func SpineBound(p *Prepared) int { return p.room.spines }

// BindSpines binds names to values as Bind does, up to building the
// graph, and returns how many spine copies the binding took from its slab,
// with the error Bind returns for it.
func BindSpines(p *Prepared, names, values []string) (int, error) {
	b := binderPool.Get().(*binder)
	defer b.release()
	b.p, b.names, b.values = p, names, values
	if err := b.checkValues(); err != nil {
		return 0, err
	}
	if err := b.bindStrings(); err != nil {
		return 0, err
	}
	var s Slabs
	s.Reserve(p)
	s.Make()
	b.cutRoom(&s)
	for _, n := range p.nodes {
		b.expr(n.Pred)
		b.expr(n.JoinCond)
	}
	return len(b.spines), b.err
}

// Conjuncts is AppendConjuncts into a fresh slice.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

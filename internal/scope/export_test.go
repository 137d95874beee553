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
	if err := b.bindStrings(nil); err != nil {
		return 0, err
	}
	var s Slabs
	s.Reserve(p)
	s.Make(0)
	b.cutRoom(&s)
	for _, n := range p.nodes {
		b.expr(n.Pred)
		b.expr(n.JoinCond)
	}
	return len(b.spines), b.err
}

// Conjuncts is AppendConjuncts into a fresh slice.
func Conjuncts(e Expr) []Expr { return AppendConjuncts(nil, e) }

// BoundStringBytes binds names to values into a batch of one with a string
// arena and returns how many bytes the binding cut from it.
func BoundStringBytes(p *Prepared, names, values []string) (int, error) {
	var s Slabs
	s.Reserve(p)
	s.Make(1)
	var g Graph
	err := p.BindInto(&g, &s, names, values)
	return s.strs.Len(), err
}

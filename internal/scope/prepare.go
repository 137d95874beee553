package scope

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Prepared is a script compiled once with its placeholders open: the
// logical DAG every binding of it starts from. It is immutable, and Bind is
// safe for concurrent use.
type Prepared struct {
	g     *Graph
	nodes []*Node // g.Nodes(): inputs before consumers

	// open are the distinct strings of g holding an '@', which a binding
	// may rewrite: scan and output paths, column sources, and the string
	// literals of predicates and join conditions. fixed are the string
	// literals holding an '@' in projections and aggregate arguments, which
	// a binding may not touch.
	open, fixed []string

	// room is what one binding takes from its Slabs, and what a Store's
	// copy of it takes.
	room slabSizes
}

// slabSizes counts the elements of each of a bound graph's slabs. For one
// binding of a Prepared the counts are fixed by the prepared DAG alone:
// nodes and ptrs exactly, the rest as the most a binding can take.
type slabSizes struct {
	nodes int // one per node
	ptrs  int // len(Inputs) summed over nodes, and then the Roots
	// cols counts the columns, Cols and GroupBy alike, that sit in a slice
	// holding an open source: the most a binding re-dates.
	cols int
	// spines counts, over every node's Pred and JoinCond, the BinaryExprs
	// above a placeholder or a string holding an '@': the most a binding
	// copies.
	spines int
	// ints counts the distinct placeholders of Preds and JoinConds: the
	// most integer literals a binding makes, one per name.
	ints int
	// A binding's header is its caller's and its Projs are the prepared
	// DAG's, so Make makes neither; a Store's copy of the binding takes a
	// header of its own, graphs, and its own Projs, len(Projs) summed over
	// nodes.
	graphs, projs int
}

func (z *slabSizes) add(o slabSizes) {
	z.nodes += o.nodes
	z.ptrs += o.ptrs
	z.cols += o.cols
	z.spines += o.spines
	z.ints += o.ints
	z.graphs += o.graphs
	z.projs += o.projs
}

// Prepare parses and compiles a script whose literals are placeholders.
// It is the one compiler: CompileScript is Prepare and a Bind of nothing.
// A placeholder where its value could change the DAG's shape or types — in
// a SELECT item or an aggregate's argument — is a compile error.
func Prepare(src string) (*Prepared, error) {
	script, err := Parse(src)
	if err != nil {
		return nil, err
	}
	g, err := compile(script)
	if err != nil {
		return nil, err
	}
	p := &Prepared{g: g, nodes: g.Nodes()}
	p.room.nodes, p.room.ptrs, p.room.graphs = len(p.nodes), len(g.Roots), 1
	var params []string
	for _, n := range p.nodes {
		p.room.ptrs += len(n.Inputs)
		p.open = addMarked(p.open, n.TablePath)
		p.open = addMarked(p.open, n.OutPath)
		for _, cols := range [2][]Column{n.Cols, n.GroupBy} {
			dated := false
			for _, c := range cols {
				if strings.IndexByte(c.Source, '@') >= 0 {
					p.open = addMarked(p.open, c.Source)
					dated = true
				}
			}
			if dated {
				p.room.cols += len(cols)
			}
		}
		p.open = appendMarkedLits(p.open, n.Pred)
		p.open = appendMarkedLits(p.open, n.JoinCond)
		for _, e := range [2]Expr{n.Pred, n.JoinCond} {
			k, _ := spines(e)
			p.room.spines += k
			params = appendParams(params, e)
		}
		p.room.projs += len(n.Projs)
		for _, pe := range n.Projs {
			p.fixed = appendMarkedLits(p.fixed, pe.E)
		}
		for _, a := range n.Aggs {
			p.fixed = appendMarkedLits(p.fixed, a.Arg)
		}
	}
	p.room.ints = len(params)
	return p, nil
}

// addMarked adds s to the set list when it holds an '@'.
func addMarked(list []string, s string) []string {
	if strings.IndexByte(s, '@') < 0 || slices.Contains(list, s) {
		return list
	}
	return append(list, s)
}

// appendMarkedLits adds to list the string literals of e that hold an '@'.
func appendMarkedLits(list []string, e Expr) []string {
	switch x := e.(type) {
	case *StringLit:
		return addMarked(list, x.Value)
	case *BinaryExpr:
		return appendMarkedLits(appendMarkedLits(list, x.Left), x.Right)
	case *UnaryExpr:
		return appendMarkedLits(list, x.Expr)
	case *FuncExpr:
		for _, a := range x.Args {
			list = appendMarkedLits(list, a)
		}
	}
	return list
}

// appendParams adds to list the names of e's placeholders it lacks.
func appendParams(list []string, e Expr) []string {
	switch x := e.(type) {
	case *Param:
		if !slices.Contains(list, x.Name) {
			list = append(list, x.Name)
		}
	case *BinaryExpr:
		return appendParams(appendParams(list, x.Left), x.Right)
	case *UnaryExpr:
		return appendParams(list, x.Expr)
	case *FuncExpr:
		for _, a := range x.Args {
			list = appendParams(list, a)
		}
	}
	return list
}

// spines returns how many BinaryExprs of e lie above a placeholder or a
// string holding an '@' — each one a binding may copy — and whether e
// holds such a placeholder or string at all.
func spines(e Expr) (int, bool) {
	switch x := e.(type) {
	case *Param:
		return 0, true
	case *StringLit:
		return 0, strings.IndexByte(x.Value, '@') >= 0
	case *BinaryExpr:
		l, lm := spines(x.Left)
		r, rm := spines(x.Right)
		if lm || rm {
			return 1 + l + r, true
		}
	case *UnaryExpr:
		return spines(x.Expr)
	case *FuncExpr:
		n, marked := 0, false
		for _, a := range x.Args {
			k, m := spines(a)
			n, marked = n+k, marked || m
		}
		return n, marked
	}
	return 0, false
}

// BindError is a binding Bind refuses.
type BindError struct {
	Name string // the placeholder, without its '@'s
	Msg  string
}

func (e *BindError) Error() string {
	return fmt.Sprintf("scope: cannot bind @%s@: %s", e.Name, e.Msg)
}

// Slabs is storage for the bound graphs of a batch of bindings: their
// nodes, Inputs and Roots, re-dated schemas, rebuilt expression spines and
// integer literals, each kind in one slab. Reserve counts one binding's
// room, Make allocates what was counted, and each BindInto takes its
// graph's room as capped subslices, so no graph's appends reach another's.
// Every graph bound into a batch keeps the whole batch alive. The zero
// value is an empty batch; a Slabs is not safe for concurrent use.
type Slabs struct {
	nodes    []Node
	ptrs     []*Node
	cols     []Column
	spines   []BinaryExpr
	ints     []IntLit
	reserved slabSizes
}

// Reserve counts room in the next Make for one binding of p.
func (s *Slabs) Reserve(p *Prepared) { s.reserved.add(p.room) }

// Make allocates the room Reserve counted, one allocation per kind of
// slab and none for a kind no binding needs, and starts a new count. Room
// the slabs still held is dropped.
func (s *Slabs) Make() {
	z := s.reserved
	*s = Slabs{
		nodes:  make([]Node, z.nodes),
		ptrs:   make([]*Node, z.ptrs),
		cols:   make([]Column, z.cols),
		spines: make([]BinaryExpr, z.spines),
		ints:   make([]IntLit, z.ints),
	}
}

// cut cuts the first n elements off *slab as a capped subslice. Past what
// the slab holds it panics: the batch's Reserve did not count them.
func cut[T any](slab *[]T, n int) []T {
	c := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return c
}

// Bind returns a new Graph: the prepared DAG with each placeholder named in
// names (without its '@'s) replaced by the value at the same index — in an
// expression by the literal the value spells, inside a string by the
// value's text. It is BindInto a Graph of its own from a batch of one; see
// BindInto for what the graph shares and what Bind refuses.
func (p *Prepared) Bind(names, values []string) (*Graph, error) {
	var s Slabs
	s.Reserve(p)
	s.Make()
	g := new(Graph)
	if err := p.BindInto(g, &s, names, values); err != nil {
		return nil, err
	}
	return g, nil
}

// BindInto is Bind into the caller's Graph header dst, which it
// overwrites whole, taking the graph's slabs from s, where the caller
// reserved room for this binding: dst must be a Graph nothing else uses
// yet, typically a field of a block the caller allocates with the graph's
// other per-binding state (a job instance's facts). The bound graph is the
// graph CompileScript returns for the source with those replacements made
// in one pass, first name first, and it shares with the prepared DAG
// everything a replacement does not reach: projections, aggregates, sort
// keys, renames, undated schemas and literal-free expressions. Its nodes,
// their Inputs and Roots, re-dated schemas, rebuilt expression spines and
// integer literals are its own, cut from s; its re-dated strings are one
// allocation of their own. It may keep strings of names and values, never
// the slices, which the caller may reuse once BindInto returns. On an
// error dst is left as it was, and room it took from s stays unused.
//
// BindInto refuses, with a *BindError, a name that is not letters, digits
// and underscores; a value that is not exactly one literal token — an
// integer, float, string, TRUE or FALSE, with nothing around it — or that
// holds "*/", which could end a comment; a value holding '"' or '\' that
// would land inside a string; a placeholder bound inside a string literal
// of a SELECT item or an aggregate's argument; and a placeholder in an
// expression that names bind no value to.
func (p *Prepared) BindInto(dst *Graph, s *Slabs, names, values []string) error {
	if len(names) != len(values) {
		return fmt.Errorf("scope: %d placeholder names for %d values", len(names), len(values))
	}
	b := binderPool.Get().(*binder)
	defer b.release()
	b.p, b.names, b.values = p, names, values
	if err := b.checkValues(); err != nil {
		return err
	}
	if err := b.bindStrings(); err != nil {
		return err
	}
	for _, f := range p.fixed {
		if _, k := b.match(f, 0); k >= 0 {
			return &BindError{names[k], "inside a string literal of a SELECT item or an aggregate's argument, where its value could merge or split aggregates"}
		}
	}

	// The bound graph is immutable and every node of it reachable, so its
	// nodes and its Inputs and Roots slices can each be cut from one slab:
	// no rewrite disconnects a node of it and leaves the rest pinned.
	b.cutRoom(s)
	nodes, ptrs := cut(&s.nodes, p.room.nodes), cut(&s.ptrs, p.room.ptrs)
	if cap(b.byID) < p.g.nextID {
		b.byID = make([]*Node, p.g.nextID)
	}
	b.byID = b.byID[:p.g.nextID]
	for i, n := range p.nodes {
		c := &nodes[i]
		*c = *n
		if n.Inputs != nil {
			k := len(n.Inputs)
			c.Inputs, ptrs = ptrs[:k:k], ptrs[k:]
			for j, in := range n.Inputs {
				c.Inputs[j] = b.byID[in.ID]
			}
		}
		c.TablePath, c.OutPath = b.str(n.TablePath), b.str(n.OutPath)
		c.Cols, c.GroupBy = b.columns(n.Cols), b.columns(n.GroupBy)
		c.Pred, c.JoinCond = b.expr(n.Pred), b.expr(n.JoinCond)
		b.byID[n.ID] = c
	}
	if b.err != nil {
		return b.err
	}
	*dst = Graph{nextID: p.g.nextID, Roots: ptrs}
	for i, r := range p.g.Roots {
		dst.Roots[i] = b.byID[r.ID]
	}
	return nil
}

// binder is the state of one Bind. All but cols, spines and ints is
// scratch kept in binderPool; those three are the bound graph's room in
// its batch's slabs of re-dated columns, expression spines and integer
// literals, empty until the binding takes from them.
type binder struct {
	p             *Prepared
	names, values []string
	toks          []Token  // per name: the literal token its value is
	lits          []Expr   // per name: that literal, built on first use
	bound         []string // per p.open: the string bound
	spans         []int    // per p.open: its bytes in buf, or -1, -1
	buf           []byte
	byID          []*Node // prepared node ID -> bound node
	cols          []Column
	spines        []BinaryExpr
	ints          []IntLit
	err           error
}

var binderPool = sync.Pool{New: func() any { return new(binder) }}

func (b *binder) release() {
	clear(b.toks)
	clear(b.lits)
	clear(b.bound)
	clear(b.byID)
	b.toks, b.lits, b.bound, b.spans, b.buf = b.toks[:0], b.lits[:0], b.bound[:0], b.spans[:0], b.buf[:0]
	b.p, b.names, b.values, b.cols, b.spines, b.ints, b.err = nil, nil, nil, nil, nil, nil, nil
	binderPool.Put(b)
}

// cutRoom cuts from s the binding's room for re-dated columns, expression
// spines and integer literals, each empty and capped at its bound.
func (b *binder) cutRoom(s *Slabs) {
	b.cols = cut(&s.cols, b.p.room.cols)[:0]
	b.spines = cut(&s.spines, b.p.room.spines)[:0]
	b.ints = cut(&s.ints, b.p.room.ints)[:0]
}

// checkValues lexes every value and keeps its token.
func (b *binder) checkValues() error {
	for k, v := range b.values {
		name := b.names[k]
		if name == "" || strings.IndexFunc(name, func(r rune) bool { return r >= 0x80 || !isPlaceholderPart(byte(r)) }) >= 0 {
			return &BindError{name, "not a placeholder name"}
		}
		lx := Lexer{src: v, line: 1, col: 1}
		t, err := lx.Next()
		if err != nil || t.Line != 1 || t.Col != 1 || lx.pos != len(v) {
			return &BindError{name, fmt.Sprintf("value %q is not exactly one token", v)}
		}
		switch {
		case t.Kind == TokenInt, t.Kind == TokenFloat, t.Kind == TokenString:
		case t.Kind == TokenKeyword && (t.Text == "TRUE" || t.Text == "FALSE"):
		default:
			return &BindError{name, fmt.Sprintf("value %q is not a literal", v)}
		}
		if strings.Contains(v, "*/") {
			return &BindError{name, fmt.Sprintf("value %q holds \"*/\", which could end a comment", v)}
		}
		b.toks = append(b.toks, t)
		b.lits = append(b.lits, nil)
	}
	return nil
}

// match returns where in s, at or after from, the first placeholder that
// names binds starts, and the index of its name; -1, -1 when there is none.
func (b *binder) match(s string, from int) (int, int) {
	for i := from; i < len(s); i++ {
		j := strings.IndexByte(s[i:], '@')
		if j < 0 {
			break
		}
		i += j
		for k, name := range b.names {
			if end := i + 1 + len(name); end < len(s) && s[end] == '@' && s[i+1:end] == name {
				return i, k
			}
		}
	}
	return -1, -1
}

// bindStrings binds every open string, the changed ones into one arena.
func (b *binder) bindStrings() error {
	for _, s := range b.p.open {
		start := len(b.buf)
		from := 0
		for {
			i, k := b.match(s, from)
			if i < 0 {
				break
			}
			if v := b.values[k]; strings.ContainsAny(v, "\"\\") {
				return &BindError{b.names[k], fmt.Sprintf("value %q cannot be written inside a string", v)}
			}
			b.buf = append(append(b.buf, s[from:i]...), b.values[k]...)
			from = i + len(b.names[k]) + 2
		}
		if from == 0 {
			b.spans = append(b.spans, -1, -1)
			continue
		}
		b.buf = append(b.buf, s[from:]...)
		b.spans = append(b.spans, start, len(b.buf))
	}
	var arena string
	if len(b.buf) > 0 {
		arena = string(b.buf)
	}
	for i, s := range b.p.open {
		if start := b.spans[2*i]; start >= 0 {
			s = arena[start:b.spans[2*i+1]]
		}
		b.bound = append(b.bound, s)
	}
	return nil
}

// str returns s bound.
func (b *binder) str(s string) string {
	if strings.IndexByte(s, '@') >= 0 {
		for i, o := range b.p.open {
			if o == s {
				return b.bound[i]
			}
		}
	}
	return s
}

// columns returns cols with their sources bound: cols itself when no
// source changes, else a re-dated copy cut from the graph's column slab.
func (b *binder) columns(cols []Column) []Column {
	for i, c := range cols {
		if s := b.str(c.Source); s != c.Source {
			n, k := len(b.cols), len(cols)
			out := b.cols[n : n+k : n+k]
			b.cols = b.cols[:n+k]
			copy(out, cols)
			out[i].Source = s
			for j := i + 1; j < k; j++ {
				out[j].Source = b.str(cols[j].Source)
			}
			return out
		}
	}
	return cols
}

// expr returns e bound: e itself when no placeholder or bound string is in
// it, else a copy of the spine down to each one.
func (b *binder) expr(e Expr) Expr {
	switch x := e.(type) {
	case *Param:
		return b.literal(x.Name)
	case *StringLit:
		if s := b.str(x.Value); s != x.Value {
			return &StringLit{Value: s}
		}
	case *BinaryExpr:
		l, r := b.expr(x.Left), b.expr(x.Right)
		if l != x.Left || r != x.Right {
			c := take(&b.spines)
			*c = BinaryExpr{Op: x.Op, Left: l, Right: r}
			return c
		}
	case *UnaryExpr:
		if in := b.expr(x.Expr); in != x.Expr {
			return &UnaryExpr{Op: x.Op, Expr: in}
		}
	case *FuncExpr:
		for i, a := range x.Args {
			if ba := b.expr(a); ba != a {
				args := slices.Clone(x.Args)
				args[i] = ba
				for j := i + 1; j < len(args); j++ {
					args[j] = b.expr(args[j])
				}
				return &FuncExpr{Name: x.Name, Args: args, Star: x.Star}
			}
		}
	}
	return e
}

// literal returns the literal bound to the placeholder name, one per name
// and Bind, or records why there is none.
func (b *binder) literal(name string) Expr {
	for k, n := range b.names {
		if n != name {
			continue
		}
		if b.lits[k] == nil {
			var e Expr
			var msg string
			if t := b.toks[k]; t.Kind == TokenInt {
				var v int64
				if v, msg = intValue(t.Text); msg == "" {
					c := take(&b.ints)
					c.Value = v
					e = c
				}
			} else {
				e, _, msg = literal(t)
			}
			if msg != "" {
				b.fail(&BindError{name, msg})
			}
			b.lits[k] = e
		}
		return b.lits[k]
	}
	b.fail(&BindError{name, "no value is bound to it"})
	return nil
}

// take returns the next element of the bound graph's room *slab. Past
// its capacity it panics rather than grow: the elements handed out already
// belong to the graph, and Prepare's counts bound what a binding takes.
func take[T any](slab *[]T) *T {
	n := len(*slab)
	*slab = (*slab)[:n+1]
	return &(*slab)[n]
}

func (b *binder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

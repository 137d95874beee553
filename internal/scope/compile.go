package scope

import (
	"fmt"
)

// CompileError describes a semantic error found while lowering a script.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("scope: compile error at line %d: %s", e.Line, e.Msg)
}

// CompileScript parses and compiles a script source into a logical DAG: it
// is Prepare and a Bind of no placeholder, so a placeholder in an
// expression is an error and one inside a string stays as written.
func CompileScript(src string) (*Graph, error) {
	p, err := Prepare(src)
	if err != nil {
		return nil, err
	}
	return p.Bind(nil, nil)
}

// compile lowers a parsed script into a logical operator DAG. Rowsets
// consumed by multiple statements become shared nodes, so the result is a
// true DAG with one root per OUTPUT statement.
func compile(script *Script) (*Graph, error) {
	c := &compiler{
		graph: &Graph{},
		env:   make(map[string]*Node),
	}
	for _, st := range script.Statements {
		if err := c.compileStatement(st); err != nil {
			return nil, err
		}
	}
	if len(c.graph.Roots) == 0 {
		return nil, &CompileError{0, "script has no OUTPUT statement"}
	}
	return c.graph, nil
}

type compiler struct {
	graph   *Graph
	env     map[string]*Node
	anonSeq int
}

func (c *compiler) define(name string, line int, n *Node) error {
	if _, exists := c.env[name]; exists {
		return &CompileError{line, fmt.Sprintf("rowset %q redefined", name)}
	}
	c.env[name] = n
	return nil
}

func (c *compiler) lookup(name string, line int) (*Node, error) {
	n, ok := c.env[name]
	if !ok {
		return nil, &CompileError{line, fmt.Sprintf("unknown rowset %q", name)}
	}
	return n, nil
}

func (c *compiler) compileStatement(st Statement) error {
	switch s := st.(type) {
	case *ExtractStmt:
		return c.compileExtract(s)
	case *SelectStmt:
		return c.compileSelect(s)
	case *UnionStmt:
		return c.compileUnion(s)
	case *ReduceStmt:
		return c.compileReduce(s)
	case *ProcessStmt:
		return c.compileProcess(s)
	case *OutputStmt:
		return c.compileOutput(s)
	default:
		return &CompileError{st.Pos(), fmt.Sprintf("unsupported statement %T", st)}
	}
}

func (c *compiler) compileExtract(s *ExtractStmt) error {
	if len(s.Schema) == 0 {
		return &CompileError{s.Line, "EXTRACT needs at least one column"}
	}
	n := c.graph.NewNode(OpScan)
	n.TablePath = s.Path
	seen := make(map[string]bool)
	for _, cd := range s.Schema {
		if seen[cd.Name] {
			return &CompileError{s.Line, fmt.Sprintf("duplicate column %q in EXTRACT", cd.Name)}
		}
		seen[cd.Name] = true
		n.Cols = append(n.Cols, Column{
			Name:   cd.Name,
			Type:   cd.Type,
			Source: s.Path + ":" + cd.Name,
		})
	}
	n.BaseWidth = n.RowWidth()
	return c.define(s.Name, s.Line, n)
}

// scopeEntry maps a (qualifier, original name) pair to the merged output
// column of the current FROM/JOIN scope.
type scopeEntry struct {
	alias    string
	origName string
	col      Column // merged name
}

type selScope struct {
	entries []scopeEntry
	line    int
}

func (sc *selScope) addInput(alias string, cols []Column, mergedNames []string) {
	for i, col := range cols {
		merged := col
		merged.Name = mergedNames[i]
		sc.entries = append(sc.entries, scopeEntry{alias: alias, origName: col.Name, col: merged})
	}
}

// resolve maps a column reference to its merged column.
func (sc *selScope) resolve(ref *ColRef) (Column, error) {
	var found []scopeEntry
	for _, e := range sc.entries {
		if ref.Qualifier != "" {
			if e.alias == ref.Qualifier && e.origName == ref.Name {
				found = append(found, e)
			}
		} else if e.origName == ref.Name {
			found = append(found, e)
		}
	}
	switch len(found) {
	case 0:
		return Column{}, &CompileError{sc.line, fmt.Sprintf("unknown column %q", ref)}
	case 1:
		return found[0].col, nil
	default:
		return Column{}, &CompileError{sc.line, fmt.Sprintf("ambiguous column %q", ref)}
	}
}

// resolveExpr rewrites every column reference in e to its merged name.
// The rewrite allocates new ColRef nodes so AST expressions are never
// mutated in place.
func (sc *selScope) resolveExpr(e Expr) (Expr, error) {
	switch x := e.(type) {
	case *ColRef:
		col, err := sc.resolve(x)
		if err != nil {
			return nil, err
		}
		return &ColRef{Name: col.Name}, nil
	case *BinaryExpr:
		l, err := sc.resolveExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := sc.resolveExpr(x.Right)
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, Left: l, Right: r}, nil
	case *UnaryExpr:
		inner, err := sc.resolveExpr(x.Expr)
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: x.Op, Expr: inner}, nil
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			ra, err := sc.resolveExpr(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	default:
		return e, nil
	}
}

// typeOf infers the result type of a resolved expression against cols.
func typeOf(e Expr, cols []Column) ColType {
	switch x := e.(type) {
	case *ColRef:
		for _, c := range cols {
			if c.Name == x.Name {
				return c.Type
			}
		}
		return TypeDouble
	case *IntLit:
		return TypeLong
	case *FloatLit:
		return TypeDouble
	case *StringLit:
		return TypeString
	case *BoolLit:
		return TypeBool
	case *UnaryExpr:
		if x.Op == "NOT" {
			return TypeBool
		}
		return typeOf(x.Expr, cols)
	case *BinaryExpr:
		switch x.Op {
		case "AND", "OR", "==", "!=", "<", "<=", ">", ">=":
			return TypeBool
		default:
			lt, rt := typeOf(x.Left, cols), typeOf(x.Right, cols)
			if lt == TypeDouble || rt == TypeDouble || lt == TypeFloat || rt == TypeFloat {
				return TypeDouble
			}
			return TypeLong
		}
	case *FuncExpr:
		switch x.Name {
		case "COUNT":
			return TypeLong
		case "AVG":
			return TypeDouble
		case "SUM":
			if len(x.Args) == 1 {
				at := typeOf(x.Args[0], cols)
				if at == TypeFloat || at == TypeDouble {
					return TypeDouble
				}
				return TypeLong
			}
			return TypeLong
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				return typeOf(x.Args[0], cols)
			}
			return TypeDouble
		default:
			return TypeDouble
		}
	default:
		return TypeDouble
	}
}

// sourceOf returns the base-table source identity an expression carries:
// bare column references keep their source, computed expressions lose it.
func sourceOf(e Expr, cols []Column) string {
	if cr, ok := e.(*ColRef); ok {
		for _, c := range cols {
			if c.Name == cr.Name {
				return c.Source
			}
		}
	}
	return ""
}

func (c *compiler) compileSelect(s *SelectStmt) error {
	// A SELECT item's literal sets its column's type.
	for _, it := range s.Items {
		if p := findParam(it.Expr); p != nil {
			return &CompileError{s.Line, fmt.Sprintf("placeholder %s in a SELECT item: its value would set the column's type", p)}
		}
	}

	// 1. Assemble the FROM/JOIN scope, building the join tree left-deep.
	from, err := c.lookup(s.From.Name, s.Line)
	if err != nil {
		return err
	}
	sc := &selScope{line: s.Line}
	cur := from
	curCols := append([]Column(nil), from.Cols...)
	usedNames := make(map[string]bool)
	mergedNames := make([]string, len(from.Cols))
	for i, col := range from.Cols {
		mergedNames[i] = col.Name
		usedNames[col.Name] = true
	}
	sc.addInput(s.From.AliasOrName(), from.Cols, mergedNames)
	// curCols uses merged names.
	for i := range curCols {
		curCols[i].Name = mergedNames[i]
	}

	aliasSeen := map[string]bool{s.From.AliasOrName(): true}
	for _, jc := range s.Joins {
		right, err := c.lookup(jc.Ref.Name, s.Line)
		if err != nil {
			return err
		}
		alias := jc.Ref.AliasOrName()
		if aliasSeen[alias] {
			return &CompileError{s.Line, fmt.Sprintf("duplicate rowset alias %q", alias)}
		}
		aliasSeen[alias] = true

		// Merge the right side's columns, renaming on collision.
		rightMerged := make([]string, len(right.Cols))
		renames := make(map[string]string)
		for i, col := range right.Cols {
			name := col.Name
			if usedNames[name] {
				name = alias + "_" + col.Name
				if usedNames[name] {
					return &CompileError{s.Line, fmt.Sprintf("column name collision on %q", name)}
				}
			}
			usedNames[name] = true
			rightMerged[i] = name
			renames[name] = col.Name
		}
		leftEntries := len(sc.entries)
		sc.addInput(alias, right.Cols, rightMerged)

		cond, err := sc.resolveExpr(jc.On)
		if err != nil {
			return err
		}
		// A semi join's right side is visible to its ON clause only: it
		// produces no column a later clause could read. Its merged names
		// stay taken, so the names of later joins do not move.
		if jc.Type == JoinSemi {
			sc.entries = sc.entries[:leftEntries]
		}
		join := c.graph.NewNode(OpJoin, cur, right)
		join.JoinType = jc.Type
		join.JoinCond = cond
		join.RightRenames = renames
		// Semi joins only produce the left side's columns.
		if jc.Type == JoinSemi {
			join.Cols = append([]Column(nil), curCols...)
		} else {
			join.Cols = append([]Column(nil), curCols...)
			for i, col := range right.Cols {
				mc := col
				mc.Name = rightMerged[i]
				join.Cols = append(join.Cols, mc)
			}
		}
		cur = join
		curCols = join.Cols
	}

	// 2. WHERE.
	if s.Where != nil {
		if ContainsAggregate(s.Where) {
			return &CompileError{s.Line, "aggregates are not allowed in WHERE"}
		}
		pred, err := sc.resolveExpr(s.Where)
		if err != nil {
			return err
		}
		f := c.graph.NewNode(OpFilter, cur)
		f.Pred = pred
		f.Cols = append([]Column(nil), curCols...)
		cur = f
	}

	// 3. Aggregation.
	hasAggItems := false
	for _, it := range s.Items {
		if !it.Star && ContainsAggregate(it.Expr) {
			hasAggItems = true
		}
	}
	needsAgg := len(s.GroupBy) > 0 || hasAggItems || (s.Having != nil && ContainsAggregate(s.Having))
	var having Expr
	items := make([]SelectItem, len(s.Items))
	copy(items, s.Items)

	if needsAgg {
		agg := c.graph.NewNode(OpAgg, cur)
		// Group-by columns.
		gbNames := make(map[string]bool)
		for _, g := range s.GroupBy {
			col, err := sc.resolve(g)
			if err != nil {
				return err
			}
			if gbNames[col.Name] {
				return &CompileError{s.Line, fmt.Sprintf("duplicate GROUP BY column %q", col.Name)}
			}
			gbNames[col.Name] = true
			agg.GroupBy = append(agg.GroupBy, col)
		}

		// Extract aggregate expressions from items and HAVING, replacing
		// them with references to synthesized agg output columns.
		extractor := &aggExtractor{sc: sc, curCols: curCols, line: s.Line, used: usedNames}
		for i := range items {
			if items[i].Star {
				return &CompileError{s.Line, "SELECT * cannot be combined with GROUP BY or aggregates"}
			}
			preferred := items[i].Alias
			rewritten, err := extractor.rewrite(items[i].Expr, preferred)
			if err != nil {
				return err
			}
			items[i].Expr = rewritten
		}
		if s.Having != nil {
			rewritten, err := extractor.rewrite(s.Having, "")
			if err != nil {
				return err
			}
			having = rewritten
		}
		agg.Aggs = extractor.specs
		if len(agg.Aggs) == 0 && len(agg.GroupBy) == 0 {
			return &CompileError{s.Line, "aggregation requires GROUP BY columns or aggregate functions"}
		}
		agg.Cols = append([]Column(nil), agg.GroupBy...)
		for _, spec := range agg.Aggs {
			var argType ColType = TypeLong
			if spec.Arg != nil {
				argType = typeOf(spec.Arg, curCols)
			}
			agg.Cols = append(agg.Cols, Column{Name: spec.Name, Type: aggResultType(spec, argType)})
		}
		cur = agg
		curCols = agg.Cols

		// Non-aggregate references above the agg must be group-by columns.
		for i := range items {
			if err := checkAggScope(items[i].Expr, agg, s.Line); err != nil {
				return err
			}
		}
		if having != nil {
			if err := checkAggScope(having, agg, s.Line); err != nil {
				return err
			}
			f := c.graph.NewNode(OpFilter, cur)
			f.Pred = having
			f.Cols = append([]Column(nil), curCols...)
			cur = f
		}
	} else if s.Having != nil {
		return &CompileError{s.Line, "HAVING requires GROUP BY or aggregates"}
	}

	// 4. Projection. After aggregation, item expressions are already in
	// terms of agg output columns; otherwise resolve them now.
	isSelectStar := len(items) == 1 && items[0].Star
	if !isSelectStar {
		proj := c.graph.NewNode(OpProject, cur)
		outNames := make(map[string]bool)
		for i, it := range items {
			if it.Star {
				return &CompileError{s.Line, "SELECT * must be the only projection item"}
			}
			var e Expr
			var err error
			if needsAgg {
				e = it.Expr // already rewritten in agg scope
			} else {
				e, err = sc.resolveExpr(it.Expr)
				if err != nil {
					return err
				}
			}
			name := it.Alias
			if name == "" {
				if cr, ok := e.(*ColRef); ok {
					name = cr.Name
				} else {
					name = fmt.Sprintf("col%d", i)
				}
			}
			if outNames[name] {
				return &CompileError{s.Line, fmt.Sprintf("duplicate output column %q", name)}
			}
			outNames[name] = true
			proj.Projs = append(proj.Projs, NamedExpr{Name: name, E: e})
			proj.Cols = append(proj.Cols, Column{
				Name:   name,
				Type:   typeOf(e, curCols),
				Source: sourceOf(e, curCols),
			})
		}
		cur = proj
		curCols = proj.Cols
	}

	// 5. DISTINCT.
	if s.Distinct {
		d := c.graph.NewNode(OpDistinct, cur)
		d.Cols = append([]Column(nil), curCols...)
		cur = d
	}

	// 6. ORDER BY / TOP. Keys must name output columns.
	resolveKeys := func(keys []SortKey) ([]SortKey, error) {
		out := make([]SortKey, 0, len(keys))
		for _, k := range keys {
			name := k.Col.Name
			found := false
			for _, col := range curCols {
				if col.Name == name {
					found = true
					break
				}
			}
			if !found {
				return nil, &CompileError{s.Line, fmt.Sprintf("ORDER BY column %q is not in the output", name)}
			}
			out = append(out, SortKey{Col: &ColRef{Name: name}, Desc: k.Desc})
		}
		return out, nil
	}
	switch {
	case s.Top > 0:
		keys, err := resolveKeys(s.OrderBy)
		if err != nil {
			return err
		}
		top := c.graph.NewNode(OpTop, cur)
		top.TopN = s.Top
		top.SortKeys = keys
		top.Cols = append([]Column(nil), curCols...)
		cur = top
	case len(s.OrderBy) > 0:
		keys, err := resolveKeys(s.OrderBy)
		if err != nil {
			return err
		}
		srt := c.graph.NewNode(OpSort, cur)
		srt.SortKeys = keys
		srt.Cols = append([]Column(nil), curCols...)
		cur = srt
	}

	return c.define(s.Name, s.Line, cur)
}

// aggResultType computes the output type of an aggregate.
func aggResultType(spec AggSpec, argType ColType) ColType {
	switch spec.Func {
	case "COUNT":
		return TypeLong
	case "AVG":
		return TypeDouble
	case "SUM":
		if argType == TypeFloat || argType == TypeDouble {
			return TypeDouble
		}
		return TypeLong
	default: // MIN, MAX
		return argType
	}
}

// aggExtractor pulls aggregate function calls out of expressions, creating
// AggSpecs and replacing the calls with references to the agg outputs.
type aggExtractor struct {
	sc      *selScope
	curCols []Column
	line    int
	used    map[string]bool
	specs   []AggSpec
	seq     int
}

// rewrite returns e with every aggregate call replaced by a ColRef to an
// agg output column. preferred is used as the output name when the whole
// expression is a single aggregate call with an alias.
func (ax *aggExtractor) rewrite(e Expr, preferred string) (Expr, error) {
	switch x := e.(type) {
	case *FuncExpr:
		if IsAggregateFunc(x.Name) {
			return ax.extract(x, preferred)
		}
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			ra, err := ax.rewrite(a, "")
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	case *BinaryExpr:
		l, err := ax.rewrite(x.Left, "")
		if err != nil {
			return nil, err
		}
		r, err := ax.rewrite(x.Right, "")
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: x.Op, Left: l, Right: r}, nil
	case *UnaryExpr:
		inner, err := ax.rewrite(x.Expr, "")
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: x.Op, Expr: inner}, nil
	case *ColRef:
		return ax.sc.resolveExpr(x)
	default:
		return e, nil
	}
}

func (ax *aggExtractor) extract(fe *FuncExpr, preferred string) (Expr, error) {
	spec := AggSpec{Func: fe.Name, Star: fe.Star}
	if !fe.Star {
		if len(fe.Args) != 1 {
			return nil, &CompileError{ax.line, fmt.Sprintf("%s takes exactly one argument", fe.Name)}
		}
		if ContainsAggregate(fe.Args[0]) {
			return nil, &CompileError{ax.line, "nested aggregates are not allowed"}
		}
		// Identical aggregates share one output column, so a literal in
		// an argument decides how many there are.
		if p := findParam(fe.Args[0]); p != nil {
			return nil, &CompileError{ax.line, fmt.Sprintf("placeholder %s in an aggregate's argument: its value would decide which aggregates are one", p)}
		}
		arg, err := ax.sc.resolveExpr(fe.Args[0])
		if err != nil {
			return nil, err
		}
		spec.Arg = arg
	}
	// Reuse an existing spec for the same computation.
	for _, sp := range ax.specs {
		if sp.String() == spec.String() {
			return &ColRef{Name: sp.Name}, nil
		}
	}
	name := preferred
	if name == "" || ax.used[name] {
		name = fmt.Sprintf("agg%d", ax.seq)
		ax.seq++
	}
	ax.used[name] = true
	spec.Name = name
	ax.specs = append(ax.specs, spec)
	return &ColRef{Name: name}, nil
}

// checkAggScope verifies that every column reference in e is an output of
// the agg node (group-by column or aggregate result).
func checkAggScope(e Expr, agg *Node, line int) error {
	for _, ref := range CollectColRefs(e, nil) {
		if _, ok := agg.FindCol(ref.Name); !ok {
			return &CompileError{line, fmt.Sprintf("column %q must appear in GROUP BY or inside an aggregate", ref.Name)}
		}
	}
	return nil
}

func (c *compiler) compileUnion(s *UnionStmt) error {
	if len(s.Inputs) < 2 {
		return &CompileError{s.Line, "UNION needs at least two inputs"}
	}
	var inputs []*Node
	for _, name := range s.Inputs {
		n, err := c.lookup(name, s.Line)
		if err != nil {
			return err
		}
		inputs = append(inputs, n)
	}
	first := inputs[0]
	for _, n := range inputs[1:] {
		if len(n.Cols) != len(first.Cols) {
			return &CompileError{s.Line, fmt.Sprintf("UNION inputs have different column counts (%d vs %d)", len(first.Cols), len(n.Cols))}
		}
		for i := range n.Cols {
			if n.Cols[i].Type != first.Cols[i].Type {
				return &CompileError{s.Line, fmt.Sprintf("UNION input column %d type mismatch (%s vs %s)", i, first.Cols[i].Type, n.Cols[i].Type)}
			}
		}
	}
	u := c.graph.NewNode(OpUnion, inputs...)
	u.Cols = make([]Column, len(first.Cols))
	for i, col := range first.Cols {
		u.Cols[i] = Column{Name: col.Name, Type: col.Type} // sources differ across inputs
	}
	result := u
	if !s.All {
		d := c.graph.NewNode(OpDistinct, u)
		d.Cols = append([]Column(nil), u.Cols...)
		result = d
	}
	return c.define(s.Name, s.Line, result)
}

func (c *compiler) compileReduce(s *ReduceStmt) error {
	in, err := c.lookup(s.Input, s.Line)
	if err != nil {
		return err
	}
	if len(s.Produce) == 0 {
		return &CompileError{s.Line, "REDUCE must PRODUCE at least one column"}
	}
	n := c.graph.NewNode(OpReduce, in)
	n.UserOp = s.UserOp
	for _, ref := range s.On {
		col, ok := in.FindCol(ref.Name)
		if !ok {
			return &CompileError{s.Line, fmt.Sprintf("REDUCE ON column %q not found in input", ref.Name)}
		}
		n.GroupBy = append(n.GroupBy, col)
	}
	for _, cd := range s.Produce {
		n.Cols = append(n.Cols, Column{Name: cd.Name, Type: cd.Type})
	}
	return c.define(s.Name, s.Line, n)
}

func (c *compiler) compileProcess(s *ProcessStmt) error {
	in, err := c.lookup(s.Input, s.Line)
	if err != nil {
		return err
	}
	if len(s.Produce) == 0 {
		return &CompileError{s.Line, "PROCESS must PRODUCE at least one column"}
	}
	n := c.graph.NewNode(OpProcess, in)
	n.UserOp = s.UserOp
	for _, cd := range s.Produce {
		n.Cols = append(n.Cols, Column{Name: cd.Name, Type: cd.Type})
	}
	return c.define(s.Name, s.Line, n)
}

func (c *compiler) compileOutput(s *OutputStmt) error {
	in, err := c.lookup(s.Input, s.Line)
	if err != nil {
		return err
	}
	n := c.graph.NewNode(OpOutput, in)
	n.OutPath = s.Path
	n.Cols = append([]Column(nil), in.Cols...)
	c.graph.Roots = append(c.graph.Roots, n)
	return nil
}

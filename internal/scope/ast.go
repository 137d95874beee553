package scope

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType is the small SCOPE column type system used by the simulator.
type ColType int

const (
	TypeInt ColType = iota
	TypeLong
	TypeFloat
	TypeDouble
	TypeString
	TypeBool
	TypeDateTime
)

var colTypeNames = [...]string{"int", "long", "float", "double", "string", "bool", "datetime"}

func (t ColType) String() string {
	if int(t) < len(colTypeNames) {
		return colTypeNames[t]
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// ParseColType maps a type name to a ColType.
func ParseColType(s string) (ColType, error) {
	for i, n := range colTypeNames {
		if n == strings.ToLower(s) {
			return ColType(i), nil
		}
	}
	return 0, fmt.Errorf("scope: unknown column type %q", s)
}

// Width returns the synthetic byte width of a value of this type, used for
// data-volume accounting in the simulator.
func (t ColType) Width() int64 {
	switch t {
	case TypeInt, TypeFloat:
		return 4
	case TypeLong, TypeDouble, TypeDateTime:
		return 8
	case TypeBool:
		return 1
	case TypeString:
		return 24
	default:
		return 8
	}
}

// --- Expressions ---

// Expr is an expression tree node. Expressions appear in projections,
// predicates, join conditions and aggregate arguments.
type Expr interface {
	// String renders the expression in canonical source form; it is used
	// both for error messages and as the stable site key that lets the
	// execution simulator attach true selectivities to predicates that
	// survive plan rewrites.
	String() string
	// Normalized renders the expression with literals replaced by '?',
	// producing the template form used for recurring-job identity.
	Normalized() string
}

// appendExpr appends e's canonical (or, with normalized, template) form to
// dst. It is the one renderer behind String, Normalized and every plan
// hash. It is a single self-recursive function on purpose: escape analysis
// proves dst stays with the caller only for direct self-recursion, and
// that is what lets the hashing paths render into a stack buffer.
func appendExpr(dst []byte, e Expr, normalized bool) []byte {
	switch x := e.(type) {
	case *ColRef:
		// Column identity is part of the template: never wildcarded.
		if x.Qualifier != "" {
			dst = append(dst, x.Qualifier...)
			dst = append(dst, '.')
		}
		return append(dst, x.Name...)
	case *IntLit:
		if normalized {
			return append(dst, '?')
		}
		return strconv.AppendInt(dst, x.Value, 10)
	case *FloatLit:
		if normalized {
			return append(dst, '?')
		}
		return strconv.AppendFloat(dst, x.Value, 'g', -1, 64)
	case *StringLit:
		if normalized {
			return append(dst, '?')
		}
		return strconv.AppendQuote(dst, x.Value)
	case *BoolLit:
		if normalized {
			return append(dst, '?')
		}
		return strconv.AppendBool(dst, x.Value)
	case *Param:
		if normalized {
			return append(dst, '?')
		}
		dst = append(dst, '@')
		dst = append(dst, x.Name...)
		return append(dst, '@')
	case *BinaryExpr:
		dst = append(dst, '(')
		dst = appendExpr(dst, x.Left, normalized)
		dst = append(dst, ' ')
		dst = append(dst, x.Op...)
		dst = append(dst, ' ')
		dst = appendExpr(dst, x.Right, normalized)
		return append(dst, ')')
	case *UnaryExpr:
		dst = append(dst, x.Op...)
		dst = append(dst, ' ')
		return appendExpr(dst, x.Expr, normalized)
	case *FuncExpr:
		dst = append(dst, x.Name...)
		if x.Star {
			return append(dst, "(*)"...)
		}
		dst = append(dst, '(')
		for i, a := range x.Args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendExpr(dst, a, normalized)
		}
		return append(dst, ')')
	}
	// An Expr implemented outside this package renders itself.
	if normalized {
		return append(dst, e.Normalized()...)
	}
	return append(dst, e.String()...)
}

// AppendExpr appends e's canonical form, the bytes of e.String(), to dst.
func AppendExpr(dst []byte, e Expr) []byte { return appendExpr(dst, e, false) }

// render is String and Normalized for every Expr: one allocation, the
// returned string, unless the form outgrows the stack buffer.
func render(e Expr, normalized bool) string {
	var buf [128]byte
	return string(appendExpr(buf[:0], e, normalized))
}

// ColRef references a column, optionally qualified by a rowset alias.
type ColRef struct {
	Qualifier string // may be empty
	Name      string
}

func (c *ColRef) String() string {
	if c.Qualifier == "" {
		return c.Name // the common case, and no allocation
	}
	return render(c, false)
}

func (c *ColRef) Normalized() string { return c.String() }

// IntLit is an integer literal.
type IntLit struct{ Value int64 }

func (l *IntLit) String() string     { return render(l, false) }
func (l *IntLit) Normalized() string { return render(l, true) }

// FloatLit is a floating-point literal.
type FloatLit struct{ Value float64 }

func (l *FloatLit) String() string     { return render(l, false) }
func (l *FloatLit) Normalized() string { return render(l, true) }

// StringLit is a string literal.
type StringLit struct{ Value string }

func (l *StringLit) String() string     { return render(l, false) }
func (l *StringLit) Normalized() string { return render(l, true) }

// BoolLit is a boolean literal.
type BoolLit struct{ Value bool }

func (l *BoolLit) String() string     { return render(l, false) }
func (l *BoolLit) Normalized() string { return render(l, true) }

// Param is a placeholder, "@NAME@", standing where a literal will be once
// a prepared script is bound (see Prepare). Name excludes the '@'s. It
// renders as itself and normalizes like the literal it stands for; no
// Graph the package hands out holds one.
type Param struct{ Name string }

func (p *Param) String() string     { return render(p, false) }
func (p *Param) Normalized() string { return render(p, true) }

// BinaryExpr applies an infix operator: comparison, arithmetic, AND, OR.
type BinaryExpr struct {
	Op          string // "==" "!=" "<" "<=" ">" ">=" "+" "-" "*" "/" "%" "AND" "OR"
	Left, Right Expr
}

func (b *BinaryExpr) String() string     { return render(b, false) }
func (b *BinaryExpr) Normalized() string { return render(b, true) }

// UnaryExpr applies a prefix operator: NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

func (u *UnaryExpr) String() string     { return render(u, false) }
func (u *UnaryExpr) Normalized() string { return render(u, true) }

// FuncExpr is a function call. Aggregate functions (SUM, COUNT, AVG, MIN,
// MAX) are distinguished during semantic analysis.
type FuncExpr struct {
	Name string // canonical upper case
	Args []Expr
	Star bool // COUNT(*)
}

func (f *FuncExpr) String() string     { return render(f, false) }
func (f *FuncExpr) Normalized() string { return render(f, true) }

// aggregateFuncs is the set of supported aggregate function names.
var aggregateFuncs = map[string]bool{
	"SUM": true, "COUNT": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregateFunc reports whether name (canonical case) is an aggregate.
func IsAggregateFunc(name string) bool { return aggregateFuncs[strings.ToUpper(name)] }

// ContainsAggregate reports whether the expression tree contains an
// aggregate function call.
func ContainsAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncExpr:
		if IsAggregateFunc(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if ContainsAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return ContainsAggregate(x.Left) || ContainsAggregate(x.Right)
	case *UnaryExpr:
		return ContainsAggregate(x.Expr)
	}
	return false
}

// CollectColRefs appends all column references in e to out and returns it.
func CollectColRefs(e Expr, out []*ColRef) []*ColRef {
	switch x := e.(type) {
	case *ColRef:
		out = append(out, x)
	case *BinaryExpr:
		out = CollectColRefs(x.Left, out)
		out = CollectColRefs(x.Right, out)
	case *UnaryExpr:
		out = CollectColRefs(x.Expr, out)
	case *FuncExpr:
		for _, a := range x.Args {
			out = CollectColRefs(a, out)
		}
	}
	return out
}

// --- Statements ---

// Statement is a top-level script statement.
type Statement interface {
	stmtNode()
	// Pos returns the source line of the statement for diagnostics.
	Pos() int
}

// ColDef declares a column in an EXTRACT schema.
type ColDef struct {
	Name string
	Type ColType
}

// ExtractStmt reads a rowset from an input file:
//
//	name = EXTRACT a:int, b:string FROM "path";
type ExtractStmt struct {
	Name   string
	Schema []ColDef
	Path   string
	Line   int
}

func (*ExtractStmt) stmtNode()  {}
func (s *ExtractStmt) Pos() int { return s.Line }

// SelectItem is a single projection: expression plus optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string // empty means derive from expression
	Star  bool   // SELECT *
}

// TableRef names an input rowset with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// AliasOrName returns the alias if present, else the rowset name.
func (t TableRef) AliasOrName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinType enumerates the supported join flavours.
type JoinType int

const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinSemi
)

func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinFull:
		return "FULL"
	case JoinSemi:
		return "SEMI"
	default:
		return fmt.Sprintf("join(%d)", int(j))
	}
}

// JoinClause is one JOIN ... ON ... attached to the FROM clause.
type JoinClause struct {
	Type JoinType
	Ref  TableRef
	On   Expr
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Col  *ColRef
	Desc bool
}

// SelectStmt is the workhorse statement:
//
//	name = SELECT [DISTINCT] items FROM ref [JOIN ref ON cond]...
//	       [WHERE pred] [GROUP BY cols] [HAVING pred]
//	       [ORDER BY keys] [TOP n];
type SelectStmt struct {
	Name     string
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []*ColRef
	Having   Expr
	OrderBy  []SortKey
	Top      int64 // 0 = absent
	Line     int
}

func (*SelectStmt) stmtNode()  {}
func (s *SelectStmt) Pos() int { return s.Line }

// UnionStmt combines rowsets:
//
//	name = a UNION [ALL] b [UNION [ALL] c ...];
type UnionStmt struct {
	Name   string
	Inputs []string
	All    bool
	Line   int
}

func (*UnionStmt) stmtNode()  {}
func (s *UnionStmt) Pos() int { return s.Line }

// ReduceStmt applies a user-defined reducer, SCOPE's extensibility hook:
//
//	name = REDUCE input ON col1, col2 USING MyReducer PRODUCE a:int, b:string;
type ReduceStmt struct {
	Name    string
	Input   string
	On      []*ColRef
	UserOp  string
	Produce []ColDef
	Line    int
}

func (*ReduceStmt) stmtNode()  {}
func (s *ReduceStmt) Pos() int { return s.Line }

// ProcessStmt applies a user-defined row processor:
//
//	name = PROCESS input USING MyProcessor PRODUCE a:int;
type ProcessStmt struct {
	Name    string
	Input   string
	UserOp  string
	Produce []ColDef
	Line    int
}

func (*ProcessStmt) stmtNode()  {}
func (s *ProcessStmt) Pos() int { return s.Line }

// OutputStmt writes a rowset to a file, creating a DAG root:
//
//	OUTPUT name TO "path";
type OutputStmt struct {
	Input string
	Path  string
	Line  int
}

func (*OutputStmt) stmtNode()  {}
func (s *OutputStmt) Pos() int { return s.Line }

// Script is a parsed SCOPE script: an ordered list of statements.
type Script struct {
	Statements []Statement
}

package scope

import (
	"fmt"
	"strconv"
)

// ParseError describes a syntax error with position information.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("scope: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Parser is a recursive-descent parser for SCOPE scripts.
type Parser struct {
	toks []Token
	pos  int
}

// Parse tokenizes and parses src into a Script.
func Parse(src string) (*Script, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	script := &Script{}
	for !p.atEOF() {
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		script.Statements = append(script.Statements, st)
	}
	if len(script.Statements) == 0 {
		return nil, &ParseError{1, 1, "empty script"}
	}
	return script, nil
}

func (p *Parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *Parser) cur() Token {
	if p.atEOF() {
		last := Token{Kind: TokenEOF}
		if len(p.toks) > 0 {
			prev := p.toks[len(p.toks)-1]
			last.Line, last.Col = prev.Line, prev.Col+len(prev.Text)
		}
		return last
	}
	return p.toks[p.pos]
}

func (p *Parser) advance() Token {
	t := p.cur()
	if !p.atEOF() {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	t := p.cur()
	return &ParseError{t.Line, t.Col, fmt.Sprintf(format, args...)}
}

func (p *Parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokenKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %q", kw, p.cur().Text)
	}
	return nil
}

func (p *Parser) isPunct(s string) bool {
	t := p.cur()
	return t.Kind == TokenPunct && t.Text == s
}

func (p *Parser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errorf("expected %q, found %q", s, p.cur().Text)
	}
	return nil
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.cur()
	if t.Kind != TokenIdent {
		return Token{}, p.errorf("expected identifier, found %q", t.Text)
	}
	p.advance()
	return t, nil
}

func (p *Parser) expectString() (Token, error) {
	t := p.cur()
	if t.Kind != TokenString {
		return Token{}, p.errorf("expected string literal, found %q", t.Text)
	}
	p.advance()
	return t, nil
}

// parseStatement dispatches on the statement head. Statements are either
// "OUTPUT ..." or "name = <rowset expression>".
func (p *Parser) parseStatement() (Statement, error) {
	if p.isKeyword("OUTPUT") {
		return p.parseOutput()
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	t := p.cur()
	switch {
	case t.Kind == TokenKeyword && t.Text == "EXTRACT":
		return p.parseExtract(name)
	case t.Kind == TokenKeyword && t.Text == "SELECT":
		return p.parseSelect(name)
	case t.Kind == TokenKeyword && t.Text == "REDUCE":
		return p.parseReduce(name)
	case t.Kind == TokenKeyword && t.Text == "PROCESS":
		return p.parseProcess(name)
	case t.Kind == TokenIdent:
		// Could be a UNION statement: name = a UNION b;
		return p.parseUnion(name)
	default:
		return nil, p.errorf("expected EXTRACT, SELECT, REDUCE, PROCESS or rowset name after '=', found %q", t.Text)
	}
}

func (p *Parser) parseColDefs() ([]ColDef, error) {
	var defs []ColDef
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		tt, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ct, err := ParseColType(tt.Text)
		if err != nil {
			return nil, &ParseError{tt.Line, tt.Col, err.Error()}
		}
		defs = append(defs, ColDef{Name: name.Text, Type: ct})
		if !p.acceptPunct(",") {
			return defs, nil
		}
	}
}

func (p *Parser) parseExtract(name Token) (Statement, error) {
	if err := p.expectKeyword("EXTRACT"); err != nil {
		return nil, err
	}
	schema, err := p.parseColDefs()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	path, err := p.expectString()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &ExtractStmt{Name: name.Text, Schema: schema, Path: path.Text, Line: name.Line}, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name.Text}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias.Text
	}
	return ref, nil
}

func (p *Parser) parseSelect(name Token) (Statement, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{Name: name.Text, Line: name.Line}
	st.Distinct = p.acceptKeyword("DISTINCT")

	// Projection list.
	for {
		if p.cur().Kind == TokenOperator && p.cur().Text == "*" {
			p.advance()
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias.Text
			}
			st.Items = append(st.Items, item)
		}
		if !p.acceptPunct(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st.From = from

	// JOIN clauses.
	for {
		jt, isJoin, err := p.parseJoinType()
		if err != nil {
			return nil, err
		}
		if !isJoin {
			break
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Joins = append(st.Joins, JoinClause{Type: jt, Ref: ref, On: cond})
	}

	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, cr)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			key := SortKey{Col: cr}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			st.OrderBy = append(st.OrderBy, key)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("TOP") {
		t := p.cur()
		if t.Kind != TokenInt {
			return nil, p.errorf("expected integer after TOP, found %q", t.Text)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil || n <= 0 {
			return nil, p.errorf("bad TOP count %q", t.Text)
		}
		p.advance()
		st.Top = n
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

// parseJoinType consumes an optional join head ([INNER|LEFT|RIGHT|FULL|SEMI]
// [OUTER] JOIN) and reports whether one was present.
func (p *Parser) parseJoinType() (JoinType, bool, error) {
	switch {
	case p.acceptKeyword("JOIN"):
		return JoinInner, true, nil
	case p.acceptKeyword("INNER"):
		return JoinInner, true, p.expectKeyword("JOIN")
	case p.acceptKeyword("LEFT"):
		p.acceptKeyword("OUTER")
		return JoinLeft, true, p.expectKeyword("JOIN")
	case p.acceptKeyword("RIGHT"):
		p.acceptKeyword("OUTER")
		return JoinRight, true, p.expectKeyword("JOIN")
	case p.acceptKeyword("FULL"):
		p.acceptKeyword("OUTER")
		return JoinFull, true, p.expectKeyword("JOIN")
	case p.acceptKeyword("SEMI"):
		return JoinSemi, true, p.expectKeyword("JOIN")
	default:
		return JoinInner, false, nil
	}
}

func (p *Parser) parseUnion(name Token) (Statement, error) {
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &UnionStmt{Name: name.Text, Inputs: []string{first.Text}, Line: name.Line}
	if !p.isKeyword("UNION") {
		return nil, p.errorf("expected UNION after rowset name, found %q", p.cur().Text)
	}
	sawAll, sawDistinct := false, false
	for p.acceptKeyword("UNION") {
		if p.acceptKeyword("ALL") {
			sawAll = true
		} else {
			sawDistinct = true
		}
		in, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st.Inputs = append(st.Inputs, in.Text)
	}
	if sawAll && sawDistinct {
		return nil, p.errorf("mixing UNION and UNION ALL in one statement is not supported")
	}
	st.All = sawAll
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseReduce(name Token) (Statement, error) {
	if err := p.expectKeyword("REDUCE"); err != nil {
		return nil, err
	}
	in, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ReduceStmt{Name: name.Text, Input: in.Text, Line: name.Line}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	for {
		cr, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		st.On = append(st.On, cr)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	op, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.UserOp = op.Text
	if err := p.expectKeyword("PRODUCE"); err != nil {
		return nil, err
	}
	produce, err := p.parseColDefs()
	if err != nil {
		return nil, err
	}
	st.Produce = produce
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseProcess(name Token) (Statement, error) {
	if err := p.expectKeyword("PROCESS"); err != nil {
		return nil, err
	}
	in, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &ProcessStmt{Name: name.Text, Input: in.Text, Line: name.Line}
	if err := p.expectKeyword("USING"); err != nil {
		return nil, err
	}
	op, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st.UserOp = op.Text
	if err := p.expectKeyword("PRODUCE"); err != nil {
		return nil, err
	}
	produce, err := p.parseColDefs()
	if err != nil {
		return nil, err
	}
	st.Produce = produce
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseOutput() (Statement, error) {
	line := p.cur().Line
	if err := p.expectKeyword("OUTPUT"); err != nil {
		return nil, err
	}
	in, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TO"); err != nil {
		return nil, err
	}
	path, err := p.expectString()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	return &OutputStmt{Input: in.Text, Path: path.Text, Line: line}, nil
}

// --- Expression parsing (precedence climbing) ---

// parseExpr parses an expression with OR as the lowest-precedence operator.
func (p *Parser) parseExpr() (Expr, error) {
	return p.parseOr()
}

func (p *Parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") || (p.cur().Kind == TokenOperator && p.cur().Text == "||") {
		p.advance()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") || (p.cur().Kind == TokenOperator && p.cur().Text == "&&") {
		p.advance()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.isKeyword("NOT") || (p.cur().Kind == TokenOperator && p.cur().Text == "!") {
		p.advance()
		inner, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Expr: inner}, nil
	}
	return p.parseComparison()
}

var comparisonOps = map[string]bool{
	"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true,
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind == TokenOperator && comparisonOps[t.Text] {
		p.advance()
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: t.Text, Left: left, Right: right}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == TokenOperator && (t.Text == "+" || t.Text == "-") {
			p.advance()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind == TokenOperator && (t.Text == "*" || t.Text == "/" || t.Text == "%") {
			p.advance()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryExpr{Op: t.Text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokenOperator && t.Text == "-" {
		p.advance()
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Expr: inner}, nil
	}
	return p.parsePrimary()
}

// literal returns the literal t spells — an integer, float, string, TRUE
// or FALSE — and true, or false when t is no literal. A number that does
// not parse is a literal with an error.
func literal(t Token) (Expr, bool, string) {
	switch t.Kind {
	case TokenInt:
		v, msg := intValue(t.Text)
		if msg != "" {
			return nil, true, msg
		}
		return &IntLit{Value: v}, true, ""
	case TokenFloat:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, true, fmt.Sprintf("bad float %q", t.Text)
		}
		return &FloatLit{Value: v}, true, ""
	case TokenString:
		return &StringLit{Value: t.Text}, true, ""
	case TokenKeyword:
		switch t.Text {
		case "TRUE":
			return &BoolLit{Value: true}, true, ""
		case "FALSE":
			return &BoolLit{Value: false}, true, ""
		}
	}
	return nil, false, ""
}

// intValue returns the value an integer token's text spells, or why it
// spells none.
func intValue(text string) (int64, string) {
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return 0, fmt.Sprintf("bad integer %q", text)
	}
	return v, ""
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	if e, ok, msg := literal(t); ok {
		p.advance()
		if msg != "" {
			return nil, p.errorf("%s", msg)
		}
		return e, nil
	}
	switch t.Kind {
	case TokenParam:
		p.advance()
		return &Param{Name: t.Text[1 : len(t.Text)-1]}, nil
	case TokenKeyword:
		return nil, p.errorf("unexpected keyword %q in expression", t.Text)
	case TokenIdent:
		// Function call or column reference.
		next := p.pos + 1
		if next < len(p.toks) && p.toks[next].Kind == TokenPunct && p.toks[next].Text == "(" {
			return p.parseFuncCall()
		}
		return p.parseColRef()
	case TokenPunct:
		if t.Text == "(" {
			p.advance()
			inner, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return inner, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}

func (p *Parser) parseFuncCall() (Expr, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fe := &FuncExpr{Name: canonicalFuncName(name.Text)}
	if p.cur().Kind == TokenOperator && p.cur().Text == "*" {
		p.advance()
		fe.Star = true
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return fe, nil
	}
	if !p.isPunct(")") {
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fe.Args = append(fe.Args, arg)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return fe, nil
}

// canonicalFuncName upper-cases aggregate names so COUNT/count/Count all
// compare equal; scalar function names keep their case.
func canonicalFuncName(name string) string {
	if IsAggregateFunc(name) {
		return upper(name)
	}
	return name
}

func upper(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// parseColRef parses "name" or "qualifier.name".
func (p *Parser) parseColRef() (*ColRef, error) {
	first, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.acceptPunct(".") {
		second, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &ColRef{Qualifier: first.Text, Name: second.Text}, nil
	}
	return &ColRef{Name: first.Text}, nil
}

// Package scope implements a SCOPE-like scripting language and its
// compiler. SCOPE scripts ("jobs") are data flows of one or more SQL-like
// statements stitched into a single DAG: statements assign rowsets to
// names, later statements consume them, and OUTPUT statements create the
// DAG's roots. The package provides the lexer, parser, semantic analysis
// and compilation to the logical operator DAG that the optimizer package
// transforms.
//
// # Placeholders
//
// A recurring job is one script re-run with new constants, so a script may
// leave its literals open as placeholders, "@NAME@" (NAME letters, digits
// and underscores). In expression position a placeholder is a token of its
// own and parses to a *Param; inside a string literal — an EXTRACT or
// OUTPUT path, and so every column source derived from it — it is text,
// kept as written. Prepare compiles such a script once; Bind makes each
// instance by substitution, sharing with the prepared DAG everything the
// values do not reach, and returns exactly what CompileScript returns for
// the source with the values written in. To keep that exact, Prepare
// refuses a placeholder whose value could change the DAG's shape or types
// (in a SELECT item, an aggregate's argument, or glued to a neighbouring
// token), and Bind refuses a value that is not exactly one literal token.
// CompileScript is Prepare and a Bind of nothing: there is one compiler.
package scope

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind enumerates lexical token classes.
type TokenKind int

const (
	TokenEOF TokenKind = iota
	TokenIdent
	TokenKeyword
	TokenInt
	TokenFloat
	TokenString
	TokenOperator // == != <= >= < > + - * / % && || !
	TokenPunct    // ( ) , ; = . :
	TokenParam    // @NAME@, a placeholder for a literal (see Prepare)
)

func (k TokenKind) String() string {
	switch k {
	case TokenEOF:
		return "EOF"
	case TokenIdent:
		return "identifier"
	case TokenKeyword:
		return "keyword"
	case TokenInt:
		return "integer"
	case TokenFloat:
		return "float"
	case TokenString:
		return "string"
	case TokenOperator:
		return "operator"
	case TokenPunct:
		return "punctuation"
	case TokenParam:
		return "placeholder"
	default:
		return fmt.Sprintf("token(%d)", int(k))
	}
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keyword text is upper-cased
	Line int
	Col  int
}

func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d:%d", t.Kind, t.Text, t.Line, t.Col)
}

// keywords is the set of reserved words. SCOPE keywords are
// case-insensitive; the lexer canonicalizes them to upper case.
var keywords = map[string]bool{
	"EXTRACT": true, "FROM": true, "SELECT": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"TOP": true, "DISTINCT": true, "AS": true, "JOIN": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "FULL": true,
	"SEMI": true, "OUTER": true, "ON": true, "UNION": true,
	"ALL": true, "OUTPUT": true, "TO": true, "REDUCE": true,
	"PROCESS": true, "USING": true, "PRODUCE": true, "AND": true,
	"OR": true, "NOT": true, "ASC": true, "DESC": true,
	"TRUE": true, "FALSE": true, "NULL": true,
}

// maxKeywordLen is the length of the longest reserved word (DISTINCT).
const maxKeywordLen = 8

// IsKeyword reports whether s (any case) is a reserved word. Keywords are
// ASCII, so it folds case bytewise into a stack buffer rather than
// allocating an upper-cased copy of every identifier it is asked about.
func IsKeyword(s string) bool {
	if len(s) > maxKeywordLen {
		return false
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	return keywords[string(buf[:len(s)])]
}

// LexError describes a lexical error with position information.
type LexError struct {
	Line, Col int
	Msg       string
}

func (e *LexError) Error() string {
	return fmt.Sprintf("scope: lex error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// Lexer tokenizes a SCOPE script.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a Lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize lexes the whole script, returning all tokens (excluding the
// final EOF) or the first lexical error.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokenEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *Lexer) advance() byte {
	ch := l.src[l.pos]
	l.pos++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		ch := l.peek()
		switch {
		case ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n':
			l.advance()
		case ch == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case ch == '/' && l.peek2() == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return &LexError{startLine, startCol, "unterminated block comment"}
			}
		default:
			return nil
		}
	}
	return nil
}

// Next returns the next token, or a TokenEOF token at end of input.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokenEOF, Line: l.line, Col: l.col}, nil
	}
	line, col := l.line, l.col
	ch := l.peek()

	switch {
	case isIdentStart(ch):
		start := l.pos
		for l.pos < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if IsKeyword(text) {
			return Token{Kind: TokenKeyword, Text: strings.ToUpper(text), Line: line, Col: col}, nil
		}
		return Token{Kind: TokenIdent, Text: text, Line: line, Col: col}, nil

	case ch >= '0' && ch <= '9':
		return l.lexNumber(line, col)

	case ch == '"':
		return l.lexString(line, col)

	case ch == '@':
		return l.lexParam(line, col)

	default:
		return l.lexOperator(line, col)
	}
}

func isIdentStart(ch byte) bool {
	return ch == '_' || unicode.IsLetter(rune(ch))
}

func isIdentPart(ch byte) bool {
	return ch == '_' || unicode.IsLetter(rune(ch)) || (ch >= '0' && ch <= '9')
}

func (l *Lexer) lexNumber(line, col int) (Token, error) {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		ch := l.peek()
		if ch >= '0' && ch <= '9' {
			l.advance()
			continue
		}
		if ch == '.' && !isFloat && l.peek2() >= '0' && l.peek2() <= '9' {
			isFloat = true
			l.advance()
			continue
		}
		break
	}
	text := l.src[start:l.pos]
	kind := TokenInt
	if isFloat {
		kind = TokenFloat
	}
	// A number immediately followed by an identifier char is malformed
	// (e.g. "12abc").
	if l.pos < len(l.src) && isIdentStart(l.peek()) {
		return Token{}, &LexError{line, col, fmt.Sprintf("malformed number %q", text+string(l.peek()))}
	}
	return Token{Kind: kind, Text: text, Line: line, Col: col}, nil
}

// placeholderLen returns the length of the placeholder "@NAME@" — NAME one
// or more letters, digits and underscores — that s starts with, or 0.
func placeholderLen(s string) int {
	if len(s) < 3 || s[0] != '@' {
		return 0
	}
	i := 1
	for i < len(s) && isPlaceholderPart(s[i]) {
		i++
	}
	if i == 1 || i == len(s) || s[i] != '@' {
		return 0
	}
	return i + 1
}

func isPlaceholderPart(ch byte) bool {
	return ch == '_' || 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || '0' <= ch && ch <= '9'
}

// glues reports whether a literal written next to ch would lex as part of
// one token with it: "x5", "5x", "1.5", "TRUEx".
func glues(ch byte) bool { return isIdentPart(ch) || ch == '.' || ch == '@' }

// lexParam lexes a placeholder. One glued to its neighbours is refused:
// the literal it stands for would lex as part of another token.
func (l *Lexer) lexParam(line, col int) (Token, error) {
	n := placeholderLen(l.src[l.pos:])
	if n == 0 {
		l.advance()
		return Token{}, &LexError{line, col, "unexpected character '@'"}
	}
	start := l.pos
	if start > 0 && glues(l.src[start-1]) || start+n < len(l.src) && glues(l.src[start+n]) {
		return Token{}, &LexError{line, col, fmt.Sprintf("placeholder %s touches the token beside it", l.src[start:start+n])}
	}
	for l.pos < start+n {
		l.advance()
	}
	return Token{Kind: TokenParam, Text: l.src[start:l.pos], Line: line, Col: col}, nil
}

func (l *Lexer) lexString(line, col int) (Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		ch := l.advance()
		switch ch {
		case '"':
			return Token{Kind: TokenString, Text: sb.String(), Line: line, Col: col}, nil
		case '\\':
			if l.pos >= len(l.src) {
				return Token{}, &LexError{line, col, "unterminated string"}
			}
			esc := l.advance()
			switch esc {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '\\', '"':
				sb.WriteByte(esc)
			default:
				return Token{}, &LexError{line, col, fmt.Sprintf("bad escape \\%c", esc)}
			}
		case '\n':
			return Token{}, &LexError{line, col, "newline in string literal"}
		default:
			sb.WriteByte(ch)
		}
	}
	return Token{}, &LexError{line, col, "unterminated string"}
}

var twoCharOps = map[string]bool{
	"==": true, "!=": true, "<=": true, ">=": true, "&&": true, "||": true,
}

func (l *Lexer) lexOperator(line, col int) (Token, error) {
	ch := l.advance()
	// Operator text is a slice of the source, like identifier text.
	if l.pos < len(l.src) {
		two := l.src[l.pos-1 : l.pos+1]
		if twoCharOps[two] {
			l.advance()
			return Token{Kind: TokenOperator, Text: two, Line: line, Col: col}, nil
		}
	}
	one := l.src[l.pos-1 : l.pos]
	switch ch {
	case '<', '>', '+', '-', '*', '/', '%', '!':
		return Token{Kind: TokenOperator, Text: one, Line: line, Col: col}, nil
	case '(', ')', ',', ';', '=', '.', ':':
		return Token{Kind: TokenPunct, Text: one, Line: line, Col: col}, nil
	default:
		return Token{}, &LexError{line, col, fmt.Sprintf("unexpected character %q", ch)}
	}
}

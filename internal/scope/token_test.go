package scope

import (
	"strings"
	"testing"
)

func TestTokenizeBasics(t *testing.T) {
	toks, err := Tokenize(`rs = SELECT a, b FROM input;`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokenKind{
		TokenIdent, TokenPunct, TokenKeyword, TokenIdent, TokenPunct,
		TokenIdent, TokenKeyword, TokenIdent, TokenPunct,
	}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want kind %v", i, toks[i], k)
		}
	}
}

func TestTokenizeKeywordCaseInsensitive(t *testing.T) {
	toks, err := Tokenize(`select Select SELECT`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.Kind != TokenKeyword || tok.Text != "SELECT" {
			t.Errorf("token %v should canonicalize to keyword SELECT", tok)
		}
	}
}

func TestTokenizeNumbers(t *testing.T) {
	toks, err := Tokenize(`1 23 4.5 0.001`)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokenKind{TokenInt, TokenInt, TokenFloat, TokenFloat}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %v, want %v", i, toks[i], k)
		}
	}
}

func TestTokenizeMalformedNumber(t *testing.T) {
	if _, err := Tokenize(`12abc`); err == nil {
		t.Error("expected error for malformed number")
	}
}

func TestTokenizeStrings(t *testing.T) {
	toks, err := Tokenize(`"hello" "a\"b" "tab\there"`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hello", `a"b`, "tab\there"}
	for i, w := range want {
		if toks[i].Kind != TokenString || toks[i].Text != w {
			t.Errorf("token %d = %v, want string %q", i, toks[i], w)
		}
	}
}

func TestTokenizeStringErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "\"line\nbreak\"", `"bad\escape"`} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q) should fail", src)
		}
	}
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize(`== != <= >= < > + - * / % && ||`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%", "&&", "||"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != TokenOperator || toks[i].Text != w {
			t.Errorf("token %d = %v, want operator %q", i, toks[i], w)
		}
	}
}

func TestTokenizeComments(t *testing.T) {
	src := `a // line comment
	/* block
	comment */ b`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Errorf("comments not skipped: %v", toks)
	}
}

func TestTokenizeUnterminatedBlockComment(t *testing.T) {
	if _, err := Tokenize(`a /* never closed`); err == nil {
		t.Error("expected error for unterminated block comment")
	}
}

func TestTokenizeLineNumbers(t *testing.T) {
	toks, err := Tokenize("a\nb\n  c")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[1].Line != 2 || toks[2].Line != 3 {
		t.Errorf("line numbers wrong: %v", toks)
	}
	if toks[2].Col != 3 {
		t.Errorf("column of c = %d, want 3", toks[2].Col)
	}
}

func TestTokenizeUnexpectedChar(t *testing.T) {
	_, err := Tokenize("a @ b")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "unexpected character") {
		t.Errorf("error = %v", err)
	}
}

func TestIsKeyword(t *testing.T) {
	if !IsKeyword("select") || !IsKeyword("SELECT") || !IsKeyword("Output") {
		t.Error("keywords should be case-insensitive")
	}
	if IsKeyword("myident") {
		t.Error("myident is not a keyword")
	}
	// IsKeyword folds case into a buffer sized to the longest keyword.
	for k := range keywords {
		if len(k) > maxKeywordLen {
			t.Errorf("keyword %s is longer than maxKeywordLen = %d", k, maxKeywordLen)
		}
		if !IsKeyword(strings.ToLower(k)) {
			t.Errorf("IsKeyword(%q) = false", strings.ToLower(k))
		}
	}
	for _, s := range []string{"", "distincts", "selec\xd4", "or1"} {
		if IsKeyword(s) != keywords[strings.ToUpper(s)] {
			t.Errorf("IsKeyword(%q) = %v, the upper-cased lookup says %v", s, IsKeyword(s), keywords[strings.ToUpper(s)])
		}
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: TokenIdent, Text: "x", Line: 3, Col: 7}
	if got := tok.String(); !strings.Contains(got, "x") || !strings.Contains(got, "3:7") {
		t.Errorf("Token.String = %q", got)
	}
}

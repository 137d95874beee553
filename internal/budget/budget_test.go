package budget

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const self = "qoadvisor/internal/budget"

// TestEveryRowHasOneGate scans every _test.go file of the module for
// calls of the helpers. Each must name a row of the table by a string
// literal whose first word is its package's directory, in a test that
// CI's un-raced "Allocation and resident-size gates" step selects; and
// each row must be named by exactly one call.
func TestEveryRowHasOneGate(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`name: Allocation and resident-size gates.*\n\s*run: \|?\s*go test -run '([^']+)'`).FindSubmatch(ci)
	if m == nil {
		t.Fatal("ci.yml has no \"Allocation and resident-size gates\" step running go test -run")
	}
	selected := regexp.MustCompile(string(m[1]))
	helpers := []string{"Allocs", "Mallocs", "Retained", "Gate"}
	readers := map[string][]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "../.." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil || !slices.ContainsFunc(f.Imports, func(s *ast.ImportSpec) bool { return s.Path.Value == strconv.Quote(self) }) {
			return err
		}
		dir := filepath.Base(filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || !slices.Contains(helpers, sel.Sel.Name) {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "budget" {
					return true
				}
				at := fset.Position(call.Pos()).String()
				lit, ok := call.Args[1].(*ast.BasicLit)
				var row string
				if ok && lit.Kind == token.STRING {
					row, _ = strconv.Unquote(lit.Value)
				}
				_, known := table[row]
				switch {
				case row == "":
					t.Errorf("%s: budget.%s names its row by an expression, not a string literal", at, sel.Sel.Name)
				case !known:
					t.Errorf("%s: budget.%s names %q, which the table does not hold", at, sel.Sel.Name, row)
				case !strings.HasPrefix(row, dir+"."):
					t.Errorf("%s: row %q is not in package %s's part of the table", at, row, dir)
				case !strings.HasPrefix(fn.Name.Name, "Test") || !selected.MatchString(fn.Name.Name):
					t.Errorf("%s: %s gates %q, but CI's un-raced gate step (-run '%s') does not select it", at, fn.Name.Name, row, m[1])
				default:
					readers[row] = append(readers[row], at)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for row := range table {
		if len(readers[row]) != 1 {
			t.Errorf("row %q is read by %d gates, want 1: %v", row, len(readers[row]), readers[row])
		}
	}
}

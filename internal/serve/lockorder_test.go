package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// mutexFields parses a package directory's non-test files and returns
// its package comment and every struct field of type sync.Mutex or
// sync.RWMutex, as prefix+"Type.field".
func mutexFields(t *testing.T, dir, prefix string) (fields []string, pkgDoc string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if f.Doc != nil {
			pkgDoc += f.Doc.Text()
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				sel, ok := fld.Type.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex") {
					continue
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "sync" {
					continue
				}
				for _, id := range fld.Names {
					fields = append(fields, prefix+ts.Name.Name+"."+id.Name)
				}
			}
			return true
		})
	}
	return fields, pkgDoc
}

// TestLockHierarchyNamesEveryMutex keeps the package comment's lock
// hierarchy honest: every mutex field of internal/serve and
// internal/bandit has a line there, every line names a field that
// exists, and there are seven.
func TestLockHierarchyNamesEveryMutex(t *testing.T) {
	have, doc := mutexFields(t, ".", "")
	inBandit, _ := mutexFields(t, "../bandit", "bandit.")
	have = append(have, inBandit...)
	sort.Strings(have)

	// A hierarchy line opens its tab-indented block with the field's name.
	var named []string
	for _, m := range regexp.MustCompile(`(?m)^\t(\w+(?:\.\w+)+)\s`).FindAllStringSubmatch(doc, -1) {
		named = append(named, m[1])
	}
	sort.Strings(named)

	if got, want := strings.Join(named, " "), strings.Join(have, " "); got != want {
		t.Errorf("lock hierarchy comment (doc.go) and the mutex fields disagree\ncomment: %s\nfields:  %s", got, want)
	}
	if len(have) != 7 {
		t.Errorf("%d mutex fields in internal/serve + internal/bandit, want 7: an eighth needs an invariant no listed lock already owns", len(have))
	}
}

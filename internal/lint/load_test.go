// Package lint holds tests that read the module's own source: the
// exported-surface lint and the determinism lint. It has no non-test
// files, so nothing links it.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// pkg is one type-checked non-test package of the module.
type pkg struct {
	path  string // import path
	rel   string // directory relative to the module root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// module is every non-test package of one module, type-checked once.
type module struct {
	root string
	pkgs []*pkg // in import-dependency order
}

// fset and std are shared by every module a test binary loads, so the
// standard library is type-checked from source once.
var (
	fset = token.NewFileSet()
	std  = importer.ForCompiler(fset, "source", nil)
)

// loadModule parses the non-test Go files of every package under root
// (skipping testdata, vendor and dot or underscore directories), then
// type-checks the packages in import-dependency order. Module packages
// are served to later packages from a map; the standard library is
// type-checked from source.
func loadModule(root string) (*module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{root: root}
	byPath := map[string]*pkg{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		p, err := parseDir(root, dir, modPath)
		if p != nil {
			byPath[p.path] = p
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// Order by imports: a package is type-checked after every module
	// package it imports.
	state := map[string]int{} // 1 visiting, 2 done
	var visit func(p *pkg) error
	visit = func(p *pkg) error {
		switch state[p.path] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p.path] = 1
		for _, dep := range moduleImports(p, modPath) {
			d, ok := byPath[dep]
			if !ok {
				return fmt.Errorf("%s imports %s, which has no non-test files", p.path, dep)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p.path] = 2
		m.pkgs = append(m.pkgs, p)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(byPath[path]); err != nil {
			return nil, err
		}
	}

	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := byPath[path]; ok {
			return p.types, nil
		}
		return std.Import(path)
	})
	for _, p := range m.pkgs {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
	}
	return m, nil
}

// position renders pos as a module-relative "<file>:<line>".
func (m *module) position(pos token.Pos) string {
	p := fset.Position(pos)
	if rel, err := filepath.Rel(m.root, p.Filename); err == nil {
		p.Filename = filepath.ToSlash(rel)
	}
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// parseDir parses the non-test files of dir that match the default
// build context; it returns nil when there are none.
func parseDir(root, dir, modPath string) (*pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	p := &pkg{path: modPath, rel: rel}
	if rel != "." {
		p.path = modPath + "/" + rel
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	return p, nil
}

// moduleImports lists the module packages p imports.
func moduleImports(p *pkg, modPath string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range p.files {
		for _, spec := range f.Imports {
			path := strings.Trim(spec.Path.Value, `"`)
			if (path == modPath || strings.HasPrefix(path, modPath+"/")) && !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

var (
	repoOnce sync.Once
	repoMod  *module
	repoErr  error
)

// repo loads this module once per test binary.
func repo(t *testing.T) *module {
	t.Helper()
	repoOnce.Do(func() { repoMod, repoErr = loadModule(filepath.Join("..", "..")) })
	if repoErr != nil {
		t.Fatal(repoErr)
	}
	return repoMod
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

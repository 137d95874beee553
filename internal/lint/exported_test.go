package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// dynamic names the interfaces the standard library calls through
// reflection or a dynamic type check: a method that implements one has a
// caller even when no module code names the interface.
const dynamic = `package dynamic

import (
	"encoding/json"
	"fmt"
)

type (
	_ fmt.Stringer
	_ json.Marshaler
	_ json.Unmarshaler
	_ interface{ Unwrap() error } // errors.Is, errors.As, errors.Unwrap
)
`

// unusedExported maps every exported package-level name and method
// declared in a package under internal/ that no non-test code of the
// module uses, as "<dir>.<Name>" or "<dir>.<Type>.<Method>", to its
// position. A use inside the name's own declaration, or as a method
// receiver, does not count, nor does a test-only package's use of a name
// declared outside it. A method counts as used when its receiver
// implements an interface that has the method and that the module
// names, passes a value to as a parameter of a function it calls, or
// that dynamic names.
func unusedExported(m *module) (map[string]string, error) {
	type decl struct {
		name          string
		pos, from, to token.Pos
	}
	decls := map[types.Object]*decl{}
	for _, p := range m.pkgs {
		if p.rel != "internal" && !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if obj := p.info.Defs[d.Name]; obj != nil && obj.Exported() {
						name := p.rel + "." + obj.Name()
						if d.Recv != nil {
							name = p.rel + "." + receiverName(obj.(*types.Func)) + "." + obj.Name()
						}
						decls[obj] = &decl{name, d.Name.Pos(), d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var idents []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							idents = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							idents = s.Names
						}
						for _, id := range idents {
							if obj := p.info.Defs[id]; obj != nil && obj.Exported() {
								decls[obj] = &decl{p.rel + "." + obj.Name(), id.Pos(), s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	f, err := parser.ParseFile(fset, "dynamic.go", dynamic, 0)
	if err != nil {
		return nil, err
	}
	dyn := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: std}).Check("dynamic", fset, []*ast.File{f}, dyn); err != nil {
		return nil, err
	}
	for _, tv := range dyn.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	var named []*types.Named
	for _, p := range m.pkgs {
		receivers := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receivers[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if receivers[id] {
				continue
			}
			if d := decls[obj]; d != nil && d.from <= id.Pos() && id.Pos() < d.to {
				continue
			}
			if slices.Contains(testOnly, p.rel) && obj.Pkg() != p.types {
				continue
			}
			used[obj] = true
			if sig, ok := obj.Type().(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			}
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams() != nil {
				continue
			}
			if types.IsInterface(n) {
				addIface(n)
			} else {
				named = append(named, n)
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		for it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	out := map[string]string{}
	for obj, d := range decls {
		if !used[obj] {
			out[d.name] = m.position(d.pos)
		}
	}
	return out, nil
}

// receiverName is the name of a method's receiver base type.
func receiverName(f *types.Func) string {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// readAllowlist reads the names of lines of "<name> <reason>"; blank
// lines and lines starting with # are skipped. A line without a reason
// is an error.
func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		allow[name] = true
	}
	return allow, sc.Err()
}

// checkExported reports, as "<file>:<line>: <name>", each unused
// exported name that the allowlist does not hold, and each allowlist
// name that is not an unused exported name: it has gained a caller, or
// is gone.
func checkExported(m *module, allow map[string]bool) (unlisted, stale []string, err error) {
	unused, err := unusedExported(m)
	if err != nil {
		return nil, nil, err
	}
	for name, pos := range unused {
		if !allow[name] {
			unlisted = append(unlisted, pos+": "+name)
		}
	}
	for name := range allow {
		if _, ok := unused[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	return unlisted, stale, nil
}

func TestExportedNamesHaveCallers(t *testing.T) {
	m := repo(t)
	allow, err := readAllowlist("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale, err := checkExported(m, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unlisted {
		t.Errorf("%s is exported, but no non-test code uses it: delete it, move it into a _test.go file, or give it an allowlist.txt line with a reason", u)
	}
	for _, name := range stale {
		t.Errorf("allowlist.txt: %s is no longer an unused exported name; delete its line", name)
	}
}

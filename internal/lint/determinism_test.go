package lint

import (
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// deterministic lists the packages whose non-test code may read neither
// the clock nor math/rand's global source: the drift detector's state
// and a decision's features are rebuilt by journal replay, on followers
// and by audit as-of, and must come out the same every time.
var deterministic = []string{"internal/drift", "internal/featurize"}

// nondeterministic reports, as "<file>:<line>: <pkg>.<Func>", each use in
// the non-test code of the packages in dirs of time.Now, time.Since, or a
// package-level math/rand function that draws from the global source.
// The constructors (New, NewSource, NewZipf, …) draw nothing, so methods
// on a seeded *rand.Rand stay allowed.
func nondeterministic(m *module, dirs []string) []string {
	var out []string
	for _, p := range m.pkgs {
		if !slices.Contains(dirs, p.rel) {
			continue
		}
		for id, obj := range p.info.Uses {
			f, ok := obj.(*types.Func)
			if !ok || f.Pkg() == nil || f.Type().(*types.Signature).Recv() != nil {
				continue
			}
			path, name := f.Pkg().Path(), f.Name()
			clock := path == "time" && (name == "Now" || name == "Since")
			global := (path == "math/rand" || path == "math/rand/v2") && !strings.HasPrefix(name, "New")
			if clock || global {
				out = append(out, m.position(id.Pos())+": "+path+"."+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

func TestDeterministicPackagesReadNoClock(t *testing.T) {
	m := repo(t)
	for _, dir := range deterministic {
		if !slices.ContainsFunc(m.pkgs, func(p *pkg) bool { return p.rel == dir }) {
			t.Errorf("%s: no such package; update deterministic", dir)
		}
	}
	for _, use := range nondeterministic(m, deterministic) {
		t.Errorf("%s: replayed state must not read the clock or math/rand's global source; pass the time or a seeded *rand.Rand in", use)
	}
}

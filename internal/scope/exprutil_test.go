package scope

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func parsePred(t *testing.T, pred string) Expr {
	t.Helper()
	src := `x = SELECT a FROM t WHERE ` + pred + `; OUTPUT x TO "o";`
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", pred, err)
	}
	return s.Statements[0].(*SelectStmt).Where
}

func TestConjunctsSplitsNestedAnds(t *testing.T) {
	e := parsePred(t, "a > 1 AND b < 2 AND c == 3")
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(cs))
	}
	// ORs are not split.
	e2 := parsePred(t, "a > 1 OR b < 2")
	if len(Conjuncts(e2)) != 1 {
		t.Error("OR must stay a single conjunct")
	}
	// Mixed: AND over OR splits at the AND only.
	e3 := parsePred(t, "(a > 1 OR b < 2) AND c == 3")
	if len(Conjuncts(e3)) != 2 {
		t.Error("AND over OR should yield two conjuncts")
	}
}

func TestAndAllInvertsConjuncts(t *testing.T) {
	e := parsePred(t, "a > 1 AND b < 2 AND c == 3")
	cs := Conjuncts(e)
	rebuilt := AndAll(cs)
	if len(Conjuncts(rebuilt)) != len(cs) {
		t.Error("AndAll/Conjuncts round trip changed arity")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	single := AndAll(cs[:1])
	if single.String() != cs[0].String() {
		t.Error("AndAll of one element should be the element")
	}
}

func TestRefNames(t *testing.T) {
	e := parsePred(t, "a > 1 AND b < c")
	refs := RefNames(e)
	for _, want := range []string{"a", "b", "c"} {
		if !refs[want] {
			t.Errorf("missing ref %q in %v", want, refs)
		}
	}
	if len(refs) != 3 {
		t.Errorf("refs = %v", refs)
	}
}

// RenameRefs is the map-based reference MapRefs is held to: a copy of e,
// every node new, with column references renamed through mapping and
// names missing from it kept.
func RenameRefs(e Expr, mapping map[string]string) Expr {
	switch x := e.(type) {
	case *ColRef:
		if to, ok := mapping[x.Name]; ok {
			return &ColRef{Name: to}
		}
		return &ColRef{Name: x.Name}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: RenameRefs(x.Left, mapping), Right: RenameRefs(x.Right, mapping)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: RenameRefs(x.Expr, mapping)}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, RenameRefs(a, mapping))
		}
		return out
	default:
		return e
	}
}

// SubstituteRefs is RenameRefs with column references replaced by the
// mapped expressions.
func SubstituteRefs(e Expr, mapping map[string]Expr) Expr {
	switch x := e.(type) {
	case *ColRef:
		if to, ok := mapping[x.Name]; ok {
			return to
		}
		return &ColRef{Name: x.Name}
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, Left: SubstituteRefs(x.Left, mapping), Right: SubstituteRefs(x.Right, mapping)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, Expr: SubstituteRefs(x.Expr, mapping)}
	case *FuncExpr:
		out := &FuncExpr{Name: x.Name, Star: x.Star}
		for _, a := range x.Args {
			out.Args = append(out.Args, SubstituteRefs(a, mapping))
		}
		return out
	default:
		return e
	}
}

// lookup is m as a MapRefs lookup.
func lookup(m map[string]Expr) func(string) (Expr, bool) {
	return func(name string) (Expr, bool) {
		e, ok := m[name]
		return e, ok
	}
}

// renames is m as a MapRefs lookup that renames references.
func renames(m map[string]string) func(string) (Expr, bool) {
	return func(name string) (Expr, bool) {
		to, ok := m[name]
		if !ok {
			return nil, false
		}
		return &ColRef{Name: to}, true
	}
}

func TestRenameRefsDoesNotMutate(t *testing.T) {
	e := parsePred(t, "a > 1 AND b == 2")
	before := e.String()
	renamed := MapRefs(e, renames(map[string]string{"a": "x"}))
	if e.String() != before {
		t.Fatal("MapRefs mutated its input")
	}
	if !strings.Contains(renamed.String(), "x") || strings.Contains(renamed.String(), "a >") {
		t.Errorf("rename failed: %s", renamed)
	}
	// Unmapped names survive.
	if !strings.Contains(renamed.String(), "b") {
		t.Errorf("unmapped name lost: %s", renamed)
	}
}

func TestSubstituteRefsInlinesExpressions(t *testing.T) {
	e := parsePred(t, "s > 10")
	inner := parsePred(t, "a + b > 0").(*BinaryExpr).Left // (a + b)
	out := MapRefs(e, lookup(map[string]Expr{"s": inner}))
	if !strings.Contains(out.String(), "a + b") {
		t.Errorf("substitution failed: %s", out)
	}
	// Input untouched.
	if !strings.Contains(e.String(), "s") {
		t.Error("MapRefs mutated its input")
	}
}

// randomExpr builds a random expression tree for property tests: every
// leaf and every inner node kind MapRefs walks.
func randomExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Float64() < 0.3 {
		switch rng.Intn(5) {
		case 0:
			return &ColRef{Name: string(rune('a' + rng.Intn(6)))}
		case 1:
			return &IntLit{Value: int64(rng.Intn(100))}
		case 2:
			return &FloatLit{Value: rng.Float64() * 10}
		case 3:
			return &StringLit{Value: string(rune('p' + rng.Intn(3)))}
		default:
			return &Param{Name: string(rune('p' + rng.Intn(3)))}
		}
	}
	switch rng.Intn(4) {
	case 0:
		return &UnaryExpr{Op: []string{"NOT", "-"}[rng.Intn(2)], Expr: randomExpr(rng, depth-1)}
	case 1:
		args := make([]Expr, rng.Intn(4))
		for i := range args {
			args[i] = randomExpr(rng, depth-1)
		}
		return &FuncExpr{Name: []string{"CLAMP", "LEN", "UPPER"}[rng.Intn(3)], Args: args}
	}
	ops := []string{"AND", "OR", "+", "-", "*", "==", "<", ">"}
	return &BinaryExpr{
		Op:    ops[rng.Intn(len(ops))],
		Left:  randomExpr(rng, depth-1),
		Right: randomExpr(rng, depth-1),
	}
}

// randomMapping maps a random subset of e's reference names to random
// expressions.
func randomMapping(rng *rand.Rand, e Expr) map[string]Expr {
	m := make(map[string]Expr)
	for name := range RefNames(e) {
		if rng.Intn(2) == 0 {
			m[name] = randomExpr(rng, 2)
		}
	}
	return m
}

// Property: MapRefs renders as the map-based reference does, for
// substitutions and renames alike.
func TestMapRefsMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 5)
		m := randomMapping(rng, e)
		if MapRefs(e, lookup(m)).String() != SubstituteRefs(e, m).String() {
			return false
		}
		r := make(map[string]string)
		for name := range m {
			r[name] = "r" + name
		}
		return MapRefs(e, renames(r)).String() == RenameRefs(e, r).String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// sharesUntouched reports whether out, MapRefs of in, is in itself where
// in holds no mapped reference and a new node on the spine above one.
func sharesUntouched(in, out Expr, mapped map[string]Expr) bool {
	touched := false
	for _, r := range CollectColRefs(in, nil) {
		_, hit := mapped[r.Name]
		touched = touched || hit
	}
	if !touched {
		return out == in
	}
	if out == in {
		return false
	}
	switch x := in.(type) {
	case *ColRef:
		return out == mapped[x.Name]
	case *BinaryExpr:
		y, ok := out.(*BinaryExpr)
		return ok && sharesUntouched(x.Left, y.Left, mapped) && sharesUntouched(x.Right, y.Right, mapped)
	case *UnaryExpr:
		y, ok := out.(*UnaryExpr)
		return ok && sharesUntouched(x.Expr, y.Expr, mapped)
	case *FuncExpr:
		y, ok := out.(*FuncExpr)
		if !ok || len(y.Args) != len(x.Args) {
			return false
		}
		for i := range x.Args {
			if !sharesUntouched(x.Args[i], y.Args[i], mapped) {
				return false
			}
		}
		return true
	}
	return false
}

// Property: MapRefs copies only the spine above a replaced reference. A
// lookup that replaces nothing returns e itself; replacing one name's
// references leaves every subtree without one pointer-equal to e's, and e
// as it was.
func TestMapRefsSharesUntouchedSubtreesProperty(t *testing.T) {
	none := func(string) (Expr, bool) { return nil, false }
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 5)
		if MapRefs(e, none) != e {
			return false
		}
		refs := CollectColRefs(e, nil)
		if len(refs) == 0 {
			return true
		}
		before := e.String()
		m := map[string]Expr{refs[rng.Intn(len(refs))].Name: &ColRef{Name: "z"}}
		out := MapRefs(e, lookup(m))
		return sharesUntouched(e, out, m) && e.String() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: AndAll(Conjuncts(e)) preserves the conjunct multiset.
func TestConjunctsRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		cs := Conjuncts(e)
		rebuilt := AndAll(cs)
		cs2 := Conjuncts(rebuilt)
		if len(cs) != len(cs2) {
			return false
		}
		for i := range cs {
			if cs[i].String() != cs2[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: renaming with an identity map is a no-op on the rendering.
func TestRenameIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		identity := make(map[string]string)
		for name := range RefNames(e) {
			identity[name] = name
		}
		return MapRefs(e, renames(identity)).String() == e.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: rename then rename-back restores the original rendering when
// the mapping is a bijection to fresh names.
func TestRenameInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := randomExpr(rng, 4)
		fwd := make(map[string]string)
		back := make(map[string]string)
		i := 0
		for name := range RefNames(e) {
			fresh := "fresh" + string(rune('A'+i))
			fwd[name] = fresh
			back[fresh] = name
			i++
		}
		return MapRefs(MapRefs(e, renames(fwd)), renames(back)).String() == e.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Normalized never contains digits from integer literals.
func TestNormalizedWildcardsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := &BinaryExpr{
			Op:    ">",
			Left:  &ColRef{Name: "col"},
			Right: &IntLit{Value: int64(rng.Intn(100000) + 10)},
		}
		return !strings.ContainsAny(e.Normalized(), "0123456789")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Parser robustness: random garbage must error out, never panic.
func TestParseNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tokens := []string{
		"SELECT", "FROM", "WHERE", "EXTRACT", "OUTPUT", "TO", "JOIN",
		"ON", "GROUP", "BY", "UNION", "x", "y", "=", ";", ",", "(", ")",
		"==", ">", "\"s\"", "123", "4.5", "AND", "TOP", ":", "int", ".",
	}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(20)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteString(tokens[rng.Intn(len(tokens))])
			sb.WriteByte(' ')
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("parser panicked on %q: %v", sb.String(), r)
				}
			}()
			_, _ = Parse(sb.String()) // error or success both fine
		}()
	}
}

// Compiler robustness: random garbage that parses must compile or error,
// never panic.
func TestCompileNeverPanicsOnRandomScripts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		// Small random-but-plausible scripts.
		var sb strings.Builder
		sb.WriteString(`t = EXTRACT a:int, b:long FROM "f";` + "\n")
		switch rng.Intn(4) {
		case 0:
			sb.WriteString(`x = SELECT a FROM t WHERE nosuch > 1;` + "\n")
		case 1:
			sb.WriteString(`x = SELECT a, a FROM t;` + "\n")
		case 2:
			sb.WriteString(`x = SELECT SUM(a) AS s FROM t GROUP BY nosuch;` + "\n")
		default:
			sb.WriteString(`x = SELECT a FROM t;` + "\n")
		}
		sb.WriteString(`OUTPUT x TO "o";`)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("compiler panicked on %q: %v", sb.String(), r)
				}
			}()
			_, _ = CompileScript(sb.String())
		}()
	}
}

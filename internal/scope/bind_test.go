package scope_test

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"qoadvisor/internal/scope"
	"qoadvisor/internal/workload"
)

// substituteRef replaces, in one pass over src, each "@name@" that names
// binds by its value: at every '@', the first name whose placeholder
// starts there wins, and the scan resumes after it.
func substituteRef(src string, names, values []string) string {
	var sb strings.Builder
	for i := 0; i < len(src); {
		k := -1
		if src[i] == '@' {
			for j, n := range names {
				if strings.HasPrefix(src[i:], "@"+n+"@") {
					k = j
					break
				}
			}
		}
		if k < 0 {
			sb.WriteByte(src[i])
			i++
			continue
		}
		sb.WriteString(values[k])
		i += len(names[k]) + 2
	}
	return sb.String()
}

// sameGraph reports whether a and b are equal on every field of every
// node, inputs compared by value.
func sameGraph(a, b *scope.Graph) bool {
	return a.IDBound() == b.IDBound() && reflect.DeepEqual(a.Roots, b.Roots)
}

// bindSeeds are FuzzBind's hand-written seeds: what workload patterns do
// not show — placeholders in string literals of predicates, projections
// and aggregates, in comments, beside operators, unbound, and values of
// every literal kind — each as (pattern, name, value, name, value, name,
// value).
var bindSeeds = [][7]string{
	{`t = EXTRACT a:int, s:string FROM "in/@D@.tsv";
x = SELECT a, s FROM t WHERE s == "k_@D@" AND a > -@N@ OR @B@;
OUTPUT x TO "out/@D@/@N@.tsv";`, "D", "20211103", "N", "7", "B", "TRUE"},
	{`t = EXTRACT a:double FROM "in/t.tsv"; /* @N@ */
x = SELECT a FROM t WHERE a >= @N@; // @N@
OUTPUT x TO "o";`, "N", "1.5", "M", `"s"`, "", ""},
	{`t = EXTRACT a:int, s:string FROM "in/t.tsv";
x = SELECT s, "lbl_@N@" AS l FROM t WHERE s != @S@;
OUTPUT x TO "o";`, "S", `"a\"b"`, "N", "3", "", ""},
	{`t = EXTRACT a:int, s:string FROM "in/t.tsv";
x = SELECT s, MAX(s == "@N@") AS m FROM t GROUP BY s HAVING COUNT(*) > @N@;
OUTPUT x TO "o";`, "N", "3", "", "", "", ""},
	{`t = EXTRACT a:int FROM "in/@X@Y@.tsv";
x = SELECT a FROM t WHERE a > @X@;
OUTPUT x TO "o";`, "Y", "1", "X", "99999999999999999999", "", ""},
	{`t = EXTRACT a:int FROM "in/t.tsv";
x = SELECT a FROM t WHERE a > @X@;
OUTPUT x TO "o";`, "Y", "1", "", "", "", ""},
}

// FuzzBind holds Bind to compiling the substituted source: for a pattern
// Prepare accepts and up to three (name, value) pairs, Bind either returns
// the graph CompileScript returns for the pattern with those placeholders
// replaced, field for field, or refuses with a *BindError; and Bind never
// accepts what compiling the substituted source refuses. Seeded with the
// workload's template patterns.
func FuzzBind(f *testing.F) {
	for _, s := range bindSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	gen, err := workload.New(workload.Config{Seed: 20211101, NumTemplates: 8})
	if err != nil {
		f.Fatal(err)
	}
	for i, tpl := range gen.Templates() {
		pair := func(j int, v string) (string, string) {
			if j >= len(tpl.Literals) {
				return "", ""
			}
			return strings.Trim(tpl.Literals[j], "@"), v
		}
		n1, v1 := pair(0, "17")
		n2, v2 := pair(1+i%2, []string{"9001", "2.5", `"x"`}[i%3])
		f.Add(tpl.ScriptPattern, "DATE", "20211103", n1, v1, n2, v2)
	}
	f.Fuzz(func(t *testing.T, pattern, n1, v1, n2, v2, n3, v3 string) {
		p, err := scope.Prepare(pattern)
		if err != nil {
			return
		}
		var names, values []string
		for _, nv := range [3][2]string{{n1, v1}, {n2, v2}, {n3, v3}} {
			if nv[0] != "" {
				names, values = append(names, nv[0]), append(values, nv[1])
			}
		}
		got, err := p.Bind(names, values)
		src := substituteRef(pattern, names, values)
		want, werr := scope.CompileScript(src)
		var bindErr *scope.BindError
		switch {
		case err == nil && werr != nil:
			t.Fatalf("Bind accepted %q = %q, compiling the substituted source refuses: %v\n%s", names, values, werr, src)
		case err == nil && !sameGraph(got, want):
			t.Fatalf("Bind of %q = %q differs from compiling the substituted source:\n%s\nwant\n%s", names, values, got, want)
		case err != nil && !errors.As(err, &bindErr) && werr == nil:
			t.Fatalf("Bind refused %q = %q with %v (%T), compiling the substituted source accepts it", names, values, err, err)
		}
	})
}

// TestBindRefusals: each rule Bind refuses by names the binding it refuses.
func TestBindRefusals(t *testing.T) {
	const pattern = `t = EXTRACT a:int, s:string FROM "in/@D@.tsv";
x = SELECT a, "p_@P@" AS l FROM t WHERE a > @N@ AND s == "q_@Q@";
OUTPUT x TO "out/@D@.tsv";`
	p, err := scope.Prepare(pattern)
	if err != nil {
		t.Fatal(err)
	}
	ok := []string{"D", "20211103", "N", "5", "Q", "1"}
	if _, err := p.Bind(pairs(ok)); err != nil {
		t.Fatalf("a well-formed binding: %v", err)
	}
	for _, c := range []struct {
		binding []string
		name    string
	}{
		{[]string{"D", "1", "N", "5", "N@", "1"}, "N@"},        // not a placeholder name
		{[]string{"D", "1", "N", " 5"}, "N"},                   // a space beside the literal
		{[]string{"D", "1", "N", "-5"}, "N"},                   // two tokens
		{[]string{"D", "1", "N", "x"}, "N"},                    // an identifier, no literal
		{[]string{"D", "1", "N", `"*/"`}, "N"},                 // could end a comment
		{[]string{"D", `"d"`, "N", "5"}, "D"},                  // a quote inside a path
		{[]string{"D", "1", "N", "5", "P", "1"}, "P"},          // inside a SELECT item's string
		{[]string{"D", "1"}, "N"},                              // an expression left without a value
		{[]string{"D", "1", "N", "99999999999999999999"}, "N"}, // an integer that does not parse
	} {
		_, err := p.Bind(pairs(c.binding))
		var be *scope.BindError
		if !errors.As(err, &be) || be.Name != c.name {
			t.Errorf("Bind(%q) = %v, want a *BindError for %s", c.binding, err, c.name)
		}
	}
	for _, src := range []string{
		`t = EXTRACT a:int FROM "f"; x = SELECT a + @N@ AS b FROM t; OUTPUT x TO "o";`,
		`t = EXTRACT a:int FROM "f"; x = SELECT a, COUNT(*) AS c FROM t GROUP BY a HAVING SUM(a * @N@) > 1; OUTPUT x TO "o";`,
		`t = EXTRACT a:int FROM "f"; x = SELECT a FROM t WHERE a > @N@AND a < 9; OUTPUT x TO "o";`,
		`t = EXTRACT a:int FROM "f"; x = SELECT a FROM t TOP @N@; OUTPUT x TO "o";`,
	} {
		if _, err := scope.Prepare(src); err == nil {
			t.Errorf("Prepare accepted a placeholder where its value could change the graph:\n%s", src)
		}
	}
}

func pairs(kv []string) (names, values []string) {
	for i := 0; i < len(kv); i += 2 {
		names, values = append(names, kv[i]), append(values, kv[i+1])
	}
	return names, values
}

// TestBindSpinesWithinPrepareBound: Bind takes its expression spine copies
// from one slab of the size Prepare counted, which it never grows. Binding
// every ledger template with all its names, with each single name and with
// none stays within that bound, and the full binding, which copies every
// spine above a placeholder, fills it exactly.
func TestBindSpinesWithinPrepareBound(t *testing.T) {
	gen, err := workload.New(workload.Config{Seed: 20211101, NumTemplates: 222})
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range gen.Templates() {
		p, err := scope.Prepare(tpl.ScriptPattern)
		if err != nil {
			t.Fatal(err)
		}
		names, values := []string{"DATE"}, []string{"20211103"}
		for i, lit := range tpl.Literals {
			names, values = append(names, strings.Trim(lit, "@")), append(values, strconv.Itoa(10+i))
		}
		bound := scope.SpineBound(p)
		bind := func(names, values []string) int {
			t.Helper()
			used, err := scope.BindSpines(p, names, values)
			_, bindErr := p.Bind(names, values)
			var be *scope.BindError
			if (err == nil) != (bindErr == nil) || err != nil && !errors.As(err, &be) {
				t.Errorf("%s bound to %q: %v, Bind: %v", tpl.ID, names, err, bindErr)
			}
			if used > bound {
				t.Errorf("%s bound to %q: %d spine copies, Prepare's bound %d", tpl.ID, names, used, bound)
			}
			return used
		}
		if used := bind(names, values); used != bound {
			t.Errorf("%s: the full binding copies %d spines, Prepare counted %d", tpl.ID, used, bound)
		}
		for k := range names {
			bind(names[k:k+1], values[k:k+1])
		}
		bind(nil, nil)
	}
}

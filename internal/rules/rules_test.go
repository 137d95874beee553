package rules

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestCatalogHasExactly256Rules(t *testing.T) {
	c := NewCatalog()
	if len(c.rules) != NumRules {
		t.Fatalf("catalog size = %d, want %d", len(c.rules), NumRules)
	}
	if len(c.All()) != NumRules {
		t.Fatalf("All() length = %d, want %d", len(c.All()), NumRules)
	}
}

func TestCatalogIDsAreSequential(t *testing.T) {
	c := NewCatalog()
	for i, r := range c.All() {
		if r.ID != i {
			t.Fatalf("rule at index %d has ID %d", i, r.ID)
		}
	}
}

func TestCatalogNamesAreUnique(t *testing.T) {
	c := NewCatalog()
	seen := make(map[string]bool)
	for _, r := range c.All() {
		if seen[r.Name] {
			t.Fatalf("duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
}

func TestCatalogHasAllFourCategories(t *testing.T) {
	c := NewCatalog()
	for _, cat := range []Category{Required, OnByDefault, OffByDefault, Implementation} {
		rs := c.Rules(cat)
		if len(rs) == 0 {
			t.Errorf("no rules in category %v", cat)
		}
		for _, r := range rs {
			if r.Category != cat {
				t.Errorf("Rules(%v) returned rule of category %v", cat, r.Category)
			}
		}
	}
}

func TestDefaultConfig(t *testing.T) {
	c := NewCatalog()
	cfg := c.DefaultConfig()
	for _, r := range c.All() {
		want := r.Category != OffByDefault
		if cfg.Enabled(r.ID) != want {
			t.Errorf("rule %d (%v): enabled=%v, want %v", r.ID, r.Category, cfg.Enabled(r.ID), want)
		}
	}
}

func TestFlipFor(t *testing.T) {
	c := NewCatalog()
	for _, r := range c.All() {
		f := c.FlipFor(r.ID)
		if f.RuleID != r.ID {
			t.Fatalf("FlipFor(%d).RuleID = %d", r.ID, f.RuleID)
		}
		// Applying the flip to the default config must change exactly
		// that rule's setting.
		def := c.DefaultConfig()
		mod := def.WithFlip(f)
		if mod.Enabled(r.ID) == def.Enabled(r.ID) {
			t.Fatalf("flip %v did not change rule %d", f, r.ID)
		}
		if n := mod.Minus(def.Bitset).Count() + def.Minus(mod.Bitset).Count(); n != 1 {
			t.Fatalf("a single flip changed %d rules", n)
		}
	}
}

func TestFlipStringRoundTrip(t *testing.T) {
	for id := 0; id < NumRules; id++ {
		for _, f := range []Flip{{RuleID: id}, {RuleID: id, Enable: true}} {
			if f.String() != f.format() {
				t.Fatalf("%+v: table says %q, formatter %q", f, f.String(), f.format())
			}
			got, err := ParseFlip(f.String())
			if err != nil {
				t.Fatalf("ParseFlip(%q): %v", f.String(), err)
			}
			if got != f {
				t.Fatalf("round trip %v -> %q -> %v", f, f.String(), got)
			}
		}
	}
	// Outside the catalog there is no table entry, only the format.
	if s := (Flip{RuleID: 1000, Enable: true}).String(); s != "+R1000" {
		t.Errorf("out-of-catalog flip renders %q", s)
	}
}

func TestParseFlipShortForms(t *testing.T) {
	for s, want := range map[string]Flip{"+R7": {7, true}, "-R07": {7, false}, "+R0": {0, true}, "-R000": {0, false}} {
		if got, err := ParseFlip(s); err != nil || got != want {
			t.Errorf("ParseFlip(%q) = %+v, %v, want %+v", s, got, err, want)
		}
	}
}

func TestParseFlipErrors(t *testing.T) {
	for _, s := range []string{
		"", "R1", "+X001", "+R999", "*R001", "+R", "+R256",
		// What Sscanf("%d") used to let through with a nil error.
		"+R12abc", "-R12abc", "+R0x10", "-R0x10", "+R-0", "-R-0", "+R 7", "-R 7",
		"+R+7", "+R7 ", "+R0007", "+R1_0", "+R\u0667", "+R7\n",
	} {
		if f, err := ParseFlip(s); err == nil {
			t.Errorf("ParseFlip(%q) = %+v, want an error", s, f)
		}
	}
}

func TestBitsetBasicOps(t *testing.T) {
	var b Bitset
	if !b.IsEmpty() {
		t.Fatal("zero bitset should be empty")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(255)
	if b.Count() != 4 {
		t.Fatalf("Count = %d, want 4", b.Count())
	}
	for _, id := range []int{0, 63, 64, 255} {
		if !b.Get(id) {
			t.Errorf("bit %d should be set", id)
		}
	}
	if b.Get(1) || b.Get(128) {
		t.Error("unexpected bits set")
	}
	b.Clear(63)
	if b.Get(63) || b.Count() != 3 {
		t.Error("Clear failed")
	}
}

func TestBitsetSetOps(t *testing.T) {
	var a, b Bitset
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)
	u := a.Union(b)
	if u.Count() != 3 || !u.Get(1) || !u.Get(2) || !u.Get(3) {
		t.Errorf("union wrong: %v", u.Bits())
	}
	i := a.Intersect(b)
	if i.Count() != 1 || !i.Get(2) {
		t.Errorf("intersect wrong: %v", i.Bits())
	}
	m := a.Minus(b)
	if m.Count() != 1 || !m.Get(1) {
		t.Errorf("minus wrong: %v", m.Bits())
	}
}

func TestBitsetBitsSorted(t *testing.T) {
	var b Bitset
	for _, id := range []int{200, 5, 100, 64, 63} {
		b.Set(id)
	}
	bits := b.Bits()
	want := []int{5, 63, 64, 100, 200}
	if len(bits) != len(want) {
		t.Fatalf("Bits = %v", bits)
	}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("Bits = %v, want %v", bits, want)
		}
	}
}

func TestBitsetStringRoundTrip(t *testing.T) {
	var b Bitset
	b.Set(0)
	b.Set(77)
	b.Set(255)
	s := b.String()
	if len(s) != 64 {
		t.Fatalf("hex length = %d, want 64", len(s))
	}
	got, ok := fromHex(s)
	if !ok {
		t.Fatalf("String rendered %q, not 64 hex digits", s)
	}
	if !got.Equal(b) {
		t.Fatalf("round trip mismatch: %s vs %s", got, b)
	}
}

// fromHex reads Bitset.String's form back, most significant word first:
// the reference the hex round-trip tests compare against.
func fromHex(s string) (Bitset, bool) {
	var b Bitset
	if len(s) != NumRules/4 {
		return b, false
	}
	for i := range b.w {
		w, err := strconv.ParseUint(s[(len(b.w)-1-i)*16:(len(b.w)-i)*16], 16, 64)
		if err != nil {
			return b, false
		}
		b.w[i] = w
	}
	return b, true
}

func TestConfigWithFlipDoesNotMutateOriginal(t *testing.T) {
	c := NewCatalog()
	def := c.DefaultConfig()
	before := def.Count()
	_ = def.WithFlip(Flip{RuleID: 7, Enable: !def.Enabled(7)})
	if def.Count() != before {
		t.Error("WithFlip mutated the receiver")
	}
}

func TestSignatureRecordFired(t *testing.T) {
	var s Signature
	s.Record(10)
	s.Record(200)
	if !s.Fired(10) || !s.Fired(200) || s.Fired(11) {
		t.Error("signature record/fired mismatch")
	}
}

// Property: union/intersect/minus obey set algebra identities.
func TestBitsetAlgebraProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b Bitset
		for i := 0; i < 40; i++ {
			a.Set(r.Intn(NumRules))
			b.Set(r.Intn(NumRules))
		}
		// |A ∪ B| = |A| + |B| - |A ∩ B|
		if a.Union(b).Count() != a.Count()+b.Count()-a.Intersect(b).Count() {
			return false
		}
		// A \ B and A ∩ B partition A.
		if a.Minus(b).Count()+a.Intersect(b).Count() != a.Count() {
			return false
		}
		// Union is commutative.
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: hex round trip preserves arbitrary bitsets.
func TestBitsetHexRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var b Bitset
		for i := 0; i < r.Intn(100); i++ {
			b.Set(r.Intn(NumRules))
		}
		got, ok := fromHex(b.String())
		return ok && got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a double flip restores the original configuration.
func TestConfigDoubleFlipProperty(t *testing.T) {
	c := NewCatalog()
	def := c.DefaultConfig()
	f := func(idRaw uint8) bool {
		id := int(idRaw)
		f1 := Flip{RuleID: id, Enable: !def.Enabled(id)}
		f2 := Flip{RuleID: id, Enable: def.Enabled(id)}
		return def.WithFlip(f1).WithFlip(f2).Equal(def.Bitset)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 256}); err != nil {
		t.Error(err)
	}
}

func TestCategoryString(t *testing.T) {
	if Required.String() != "required" || Implementation.String() != "implementation" {
		t.Error("category names wrong")
	}
	if Category(99).String() == "" {
		t.Error("unknown category should still render")
	}
}

func TestKindString(t *testing.T) {
	if KindJoinCommute.String() != "JoinCommute" {
		t.Errorf("KindJoinCommute = %q", KindJoinCommute)
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still render")
	}
}

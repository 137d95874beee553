package lint

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestLintsCatchPlantedNames runs both lints over testdata/fixture, a
// module with one finding of each kind planted beside one case of each
// kind that must pass: an exported function nothing calls, one only its
// package's test calls, a String method fmt calls through fmt.Stringer,
// an allowlisted function, a time.Now call and a seeded *rand.Rand.
func TestLintsCatchPlantedNames(t *testing.T) {
	root := filepath.Join("testdata", "fixture")
	m, err := loadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowlist(filepath.Join(root, "allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	unlisted, stale, err := checkExported(m, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:5: internal/a.Unused",
		"internal/a/a.go:8: internal/a.OnlyTested",
	}
	if !slices.Equal(unlisted, want) || len(stale) != 0 {
		t.Errorf("exported-surface lint reported %q (stale allowlist %q), want %q", unlisted, stale, want)
	}
	got := nondeterministic(m, deterministic)
	if want := []string{"internal/drift/drift.go:10: time.Now"}; !slices.Equal(got, want) {
		t.Errorf("determinism lint reported %q, want %q", got, want)
	}
}

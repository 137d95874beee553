package lint

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// testOnly names the packages under internal/ that only _test.go files
// import: budget, the allocation budget's table and gates, and nodetest,
// the journaled-node rig. A call from one of them is a test's call, so
// it gives no name of another package a non-test caller.
var testOnly = []string{"internal/budget", "internal/nodetest"}

// TestNoBinaryLinksTestOnlyPackages holds the line testOnly draws: no
// package of the module off the list, and so no binary, imports one on
// it outside its tests.
func TestNoBinaryLinksTestOnlyPackages(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	mod, err := modulePath("../../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	banned := make([]string, len(testOnly))
	for i, rel := range testOnly {
		banned[i] = mod + "/" + rel
	}
	cmd := exec.Command(goTool, "list", "-f", "{{.ImportPath}}{{range .Deps}} {{.}}{{end}}", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list -deps ./...: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		if slices.Contains(banned, f[0]) {
			continue
		}
		for _, dep := range f[1:] {
			if slices.Contains(banned, dep) {
				t.Errorf("%s links %s", f[0], dep)
			}
		}
	}
}

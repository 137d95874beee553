package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the CLI from argv: each command line either prints the
// sections it asks for, in order, or fails with the error it should.
func TestRun(t *testing.T) {
	script := filepath.Join(t.TempDir(), "demo.scope")
	if err := os.WriteFile(script, []byte(demoScript), 0o644); err != nil {
		t.Fatal(err)
	}
	plan := []string{"=== logical DAG ===", "template hash: ", "=== physical plan ===", "=== rule signature ("}
	for _, tc := range []struct {
		argv     []string
		sections []string // in order; nil when the run must fail
		absent   string   // a section that must not be printed
		err      string   // a substring of the error, when it must fail
		usage    bool     // the failure is a usage error (exit 2)
	}{
		{argv: []string{"-demo"}, sections: plan, absent: "=== job span"},
		{argv: []string{"-demo", "-span"}, sections: append(plan[:4:4], "=== job span (")},
		{argv: []string{"-demo", "-run"}, sections: append(plan[:4:4], "=== simulated execution ===", "PNhours: ")},
		{argv: []string{"-demo", "-flip", "-R037"}, sections: []string{"=== logical DAG ===", "applying flip -R037 (LocalGlobalAgg_v1, on-by-default)", "=== physical plan ==="}},
		{argv: []string{script}, sections: plan},
		{argv: []string{"-demo", "-tokens", "4"}, sections: plan},
		{argv: []string{"-demo", "-flip", "R12"}, err: `malformed flip "R12"`},
		{argv: []string{"-demo", "-flip", "+R9999"}, err: "malformed flip"},
		{argv: []string{filepath.Join(t.TempDir(), "missing.scope")}, err: "no such file"},
		{argv: []string{}, err: "usage:", usage: true},
		{argv: []string{"-bogus", "-demo"}, err: "usage:", usage: true},
		{argv: []string{script, script}, err: "usage:", usage: true},
		{argv: []string{"-demo", "-tokens", "-1"}, err: "invalid value -1 for flag -tokens", usage: true},
	} {
		var out, stderr bytes.Buffer
		err := run(tc.argv, &out, &stderr)
		if tc.sections == nil {
			if err == nil || !strings.Contains(err.Error(), tc.err) || errors.Is(err, errUsage) != tc.usage {
				t.Errorf("scopesim %q: error %v, want one holding %q (usage %v)", tc.argv, err, tc.err, tc.usage)
			}
			if out.Len() != 0 {
				t.Errorf("scopesim %q failed after printing:\n%s", tc.argv, out.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("scopesim %q: %v", tc.argv, err)
			continue
		}
		rest := out.String()
		for _, s := range tc.sections {
			i := strings.Index(rest, s)
			if i < 0 {
				t.Errorf("scopesim %q: no %q (in order) in:\n%s", tc.argv, s, out.String())
				break
			}
			rest = rest[i+len(s):]
		}
		if tc.absent != "" && strings.Contains(out.String(), tc.absent) {
			t.Errorf("scopesim %q printed %q unasked", tc.argv, tc.absent)
		}
	}
}

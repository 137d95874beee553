package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<scale>.golden from the current -scale <scale> output")

// TestQuickGolden pins every table and figure of `experiments -scale
// quick` (seed 42, 40 templates): which flips lower cost, which flights
// validate, every reported fraction. A performance change to scope,
// optimizer, span, core or flighting must not move a byte of it; a change
// that means to regenerates it with
// `go test ./cmd/experiments -run 'Test(Quick|Full)Golden' -update` and
// explains the moved rows in EXPERIMENTS.md.
func TestQuickGolden(t *testing.T) { diffGolden(t, "quick") }

// TestFullGolden is the same pin at `-scale full` (120 templates, ≈ 6 s):
// three times the templates, so three times the plan shapes a byte-identity
// claim is held to.
func TestFullGolden(t *testing.T) { diffGolden(t, "full") }

func diffGolden(t *testing.T, scale string) {
	if raceEnabled {
		t.Skip("the goldens are diffed un-raced: every package the run drives has its own -race tests")
	}
	var got bytes.Buffer
	if err := run(&got, scale, ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", scale+".golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiment tables moved; rerun with -update only if intended\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}

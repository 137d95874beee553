package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from the current -scale quick output")

// TestQuickGolden pins every table and figure of `experiments -scale
// quick` (seed 42, 40 templates): which flips lower cost, which flights
// validate, every reported fraction. A performance change to scope,
// optimizer, span, core or flighting must not move a byte of it; a change
// that means to regenerates it with
// `go test ./cmd/experiments -run TestQuickGolden -update` and explains
// the moved rows in EXPERIMENTS.md.
func TestQuickGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full quick-scale reproduction takes minutes under -race; CI runs it un-raced")
	}
	var got bytes.Buffer
	if err := run(&got, "quick", ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "quick.golden")
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

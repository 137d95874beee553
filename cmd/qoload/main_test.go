package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qoadvisor/internal/load"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden and testdata/config.golden from the current code")

// TestFlagsGolden pins qoload's command line: the -h listing of every
// flag's name, type, default and usage string. Regenerate with
// `go test ./cmd/qoload -run TestFlagsGolden -update`.
func TestFlagsGolden(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("qoload -h: %v, want flag.ErrHelp", err)
	}
	checkGolden(t, "testdata/flags.golden", usage.Bytes())
}

// TestConfigGolden pins the settable surface of the load harness under
// the flags: the name and type of every exported field of load.Config.
// A new setting moves this golden, as a new flag moves flags.golden.
// Regenerate with `go test ./cmd/qoload -run TestConfigGolden -update`.
func TestConfigGolden(t *testing.T) {
	var got bytes.Buffer
	typ := reflect.TypeOf(load.Config{})
	fmt.Fprintf(&got, "%s\n", typ)
	for i := range typ.NumField() {
		if f := typ.Field(i); f.IsExported() {
			fmt.Fprintf(&got, "  %s\t%s\n", f.Name, f.Type)
		}
	}
	checkGolden(t, "testdata/config.golden", got.Bytes())
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s moved; rerun with -update if intended\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestRun drives the harness from argv: command lines it cannot run fail
// before touching a server — flags that do not parse, removed flags
// among them, as usage errors (exit 2), the rest as errors (exit 1) —
// and a minimal -selfhost run loads its own two-node cluster and reports
// the phase it ran, as JSON on stdout when -out is empty. A -selfhost
// start that fails part way, and a run that ends, both remove the WAL
// directory they made.
func TestRun(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where -selfhost makes its WAL directory
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		argv  []string
		err   string
		usage bool
	}{
		{[]string{"-selfhost", "-phases", "s:1s@-5"}, "rate outside", false},
		{[]string{"-selfhost", "-phases", "nocolon@5"}, "want name:duration@rate", false},
		{[]string{"-selfhost", "-phases", ""}, "empty phase spec", false},
		{[]string{"-bogus"}, "usage", true},
		{[]string{"-stall", "many"}, "usage", true},
		{[]string{"-workers", "4"}, "usage", true},
		{[]string{}, "one of -cluster or -selfhost is required", false},
		{[]string{"-cluster", "http://127.0.0.1:1", "-stall", "1s"}, "-stall requires -selfhost", false},
		{[]string{"-cluster", "http://127.0.0.1:1", "-incident-dir", "d"}, "-incident-dir requires -selfhost", false},
		{[]string{"-selfhost", "-incident-dir", filepath.Join(notDir, "d")}, "incident dir", false},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.argv, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.err) || errors.Is(err, errUsage) != tc.usage {
			t.Errorf("qoload %q: error %v, want one holding %q (usage %v)", tc.argv, err, tc.err, tc.usage)
		}
		if stdout.Len() != 0 {
			t.Errorf("qoload %q failed after writing a report:\n%s", tc.argv, stdout.String())
		}
	}

	argv := []string{"-selfhost", "-phases", "steady:300ms@20", "-out", "", "-fleet-check"}
	var stdout, stderr bytes.Buffer
	if err := run(argv, &stdout, &stderr); err != nil {
		t.Fatalf("qoload %q: %v\n%s", argv, err, stderr.String())
	}
	var rep load.Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, stdout.String())
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "steady" || rep.Phases[0].CompletedOps == 0 || rep.Phases[0].RankedJobs == 0 {
		t.Errorf("report phases %+v, want one steady phase that ranked jobs", rep.Phases)
	}
	if rep.Fleet == nil || rep.Fleet.RankFleetCount == 0 || len(strings.Split(rep.Target, ",")) != 2 {
		t.Errorf("report target %q, fleet %+v: want the primary and the follower, both scraped", rep.Target, rep.Fleet)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("temporary directory holds %v after the runs (%v), want nothing", left, err)
	}
}

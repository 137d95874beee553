package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden and testdata/config.golden from the current code")

// TestFlagsGolden pins qoadvisor's command line: the -h listing of
// every flag's name, type, default and usage string. Regenerate with
// `go test ./cmd/qoadvisor -run TestFlagsGolden -update`.
func TestFlagsGolden(t *testing.T) {
	var usage bytes.Buffer
	if err := run([]string{"-h"}, io.Discard, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("qoadvisor -h: %v, want flag.ErrHelp", err)
	}
	checkGolden(t, "testdata/flags.golden", usage.Bytes())
}

// TestConfigGolden pins the settable surface of the offline pipeline
// under the flags: the name and type of every exported field of
// core.Config, flighting.Config, workload.Config, exec.Cluster,
// bandit.Config and optimizer.Options. A new setting moves this golden,
// as a new flag moves flags.golden. Regenerate with
// `go test ./cmd/qoadvisor -run TestConfigGolden -update`.
func TestConfigGolden(t *testing.T) {
	var got bytes.Buffer
	for _, v := range []any{core.Config{}, flighting.Config{}, workload.Config{}, exec.Cluster{}, bandit.Config{}, optimizer.Options{}} {
		typ := reflect.TypeOf(v)
		fmt.Fprintf(&got, "%s\n", typ)
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				fmt.Fprintf(&got, "  %s\t%s\n", f.Name, f.Type)
			}
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

// TestRun drives the CLI from argv: the printed table has one row of ten
// integer columns per simulated day between its header and its two
// summary lines. -hints and -model leave the two files qoserved serve
// reads: a table sis.Parse accepts (header-only after -days 0) and a
// snapshot bandit.Load round-trips byte for byte, both identical at
// GOMAXPROCS 1 and 4, which a primary opened on them serves. A removed
// or unknown flag, -templates below 1 and -days below 0 are returned as
// errors.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	hinted := map[string]int{}
	for _, tc := range []struct {
		argv  []string
		procs int // when set: GOMAXPROCS for the run
		days  int
		out   string // when set: -hints <out>.hints -model <out>.snap
	}{
		{[]string{"-days", "2", "-templates", "6"}, 0, 2, ""},
		{[]string{"-days", "5", "-templates", "24"}, 4, 5, "par"},
		{[]string{"-days", "5", "-templates", "24"}, 1, 5, "seq"},
		{[]string{"-days", "0"}, 0, 0, "none"},
	} {
		argv := tc.argv
		if tc.out != "" {
			argv = append(argv, "-hints", file(tc.out+".hints"), "-model", file(tc.out+".snap"))
		}
		var out bytes.Buffer
		prev := runtime.GOMAXPROCS(tc.procs) // 0 only reads it
		err := run(argv, &out, io.Discard)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("qoadvisor %v: %v", argv, err)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		// Banner, blank, column header, one row per day, blank, two
		// summary lines, then a line per file asked for.
		want := 3 + tc.days + 3
		if tc.out != "" {
			want += 2
		}
		if len(lines) != want {
			t.Fatalf("qoadvisor %v: %d lines, want %d:\n%s", argv, len(lines), want, out.String())
		}
		if got := strings.Fields(lines[2]); len(got) != 10 || got[0] != "day" || got[9] != "hints" {
			t.Errorf("column header %q", lines[2])
		}
		for day := 1; day <= tc.days; day++ {
			row := strings.Fields(lines[2+day])
			if len(row) != 10 {
				t.Errorf("day %d: row %q has %d columns, want 10", day, lines[2+day], len(row))
				continue
			}
			for i, cell := range row {
				if strings.Trim(cell, "0123456789") != "" {
					t.Errorf("day %d column %d: %q is not a count", day, i, cell)
				}
			}
			if row[0] != strconv.Itoa(day) || row[1] == "0" {
				t.Errorf("day %d: row %q names another day or saw no jobs", day, lines[2+day])
			}
		}
		if !strings.HasPrefix(lines[4+tc.days], "final state: ") || !strings.HasPrefix(lines[5+tc.days], "hinted executions: ") {
			t.Errorf("summary lines:\n%s\n%s", lines[4+tc.days], lines[5+tc.days])
		}
		if tc.out == "" {
			continue
		}
		hints := servedFiles(t, file(tc.out+".hints"), file(tc.out+".snap"))
		if hints.Day != tc.days {
			t.Errorf("hint file is for day %d, want %d", hints.Day, tc.days)
		}
		hinted[tc.out] = len(hints.Hints)
	}
	if hinted["par"] == 0 {
		t.Error("-days 5 -templates 24 validated no hint; the served-hint check saw none")
	}
	for _, name := range []string{".hints", ".snap"} {
		par, err := os.ReadFile(file("par" + name))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := os.ReadFile(file("seq" + name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(par, seq) {
			t.Errorf("GOMAXPROCS 1 and 4 wrote different %s files", name)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-parallelism", "1"}, &out, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("qoadvisor -parallelism 1: err %v, want an undefined-flag error", err)
	}
	// A template count below one or a negative day count is refused
	// before anything runs or prints.
	for _, argv := range [][]string{{"-days", "1", "-templates", "0"}, {"-days", "-2"}} {
		out.Reset()
		if err := run(argv, &out, io.Discard); err == nil || !strings.Contains(err.Error(), "invalid value") || out.Len() != 0 {
			t.Errorf("qoadvisor %v: err %v after %q, want an invalid-value error and no output", argv, err, out.String())
		}
	}
}

// servedFiles checks one -hints/-model pair the way qoserved serve uses
// it and returns the parsed table: the model reloads to the same bytes
// and opens as a recovered snapshot, and once the table is installed
// every hinted template answers from it.
func servedFiles(t *testing.T, hintsPath, modelPath string) sis.File {
	t.Helper()
	f, err := os.Open(hintsPath)
	if err != nil {
		t.Fatal(err)
	}
	hints, err := sis.Parse(f)
	f.Close()
	if err != nil {
		t.Fatalf("-hints wrote a file sis.Parse rejects: %v", err)
	}
	model, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := bandit.Load(bytes.NewReader(model), 1)
	if err != nil {
		t.Fatalf("-model wrote a file bandit.Load rejects: %v", err)
	}
	var again bytes.Buffer
	if err := svc.Save(&again); err != nil || !bytes.Equal(again.Bytes(), model) {
		t.Errorf("-model file does not survive Load+Save byte for byte (err %v)", err)
	}

	srv, rec, err := serve.Open(serve.Config{SnapshotPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !rec.SnapshotLoaded {
		t.Errorf("serve.Open did not load the -model file")
	}
	if _, err := srv.InstallHints(hints.Hints); err != nil {
		t.Fatalf("installing the -hints table: %v", err)
	}
	for _, h := range hints.Hints {
		resp, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(h.TemplateHash), Span: []int{h.Flip.RuleID}})
		if err != nil || resp.Source != api.SourceHint || resp.Flip != h.Flip.String() {
			t.Errorf("template %016x: %+v, %v; want its hint %s", h.TemplateHash, resp, err, h.Flip)
		}
	}
	return hints
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
)

// TestRun drives the CLI from argv: the printed table has one row of ten
// integer columns per simulated day between its header and its two
// summary lines. -hints and -model leave the two files qoserved serve
// reads: a table sis.Parse accepts (header-only after -days 0) and a
// snapshot bandit.Load round-trips byte for byte, both identical at any
// -parallelism, which a primary opened on them serves.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	file := func(name string) string { return filepath.Join(dir, name) }
	hinted := map[string]int{}
	for _, tc := range []struct {
		argv []string
		days int
		out  string // when set: -hints <out>.hints -model <out>.snap
	}{
		{[]string{"-days", "2", "-templates", "6"}, 2, ""},
		{[]string{"-days", "5", "-templates", "24"}, 5, "par"},
		{[]string{"-days", "5", "-templates", "24", "-parallelism", "1"}, 5, "seq"},
		{[]string{"-days", "0"}, 0, "none"},
	} {
		argv := tc.argv
		if tc.out != "" {
			argv = append(argv, "-hints", file(tc.out+".hints"), "-model", file(tc.out+".snap"))
		}
		var out bytes.Buffer
		if err := run(argv, &out); err != nil {
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
			t.Errorf("-parallelism 1 and the default wrote different %s files", name)
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

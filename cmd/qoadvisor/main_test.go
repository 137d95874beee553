package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"qoadvisor/internal/sis"
)

// TestRun drives the CLI from argv: the printed table has one row of ten
// integer columns per simulated day between its header and its two
// summary lines, and -hints leaves a file sis.Parse accepts.
func TestRun(t *testing.T) {
	hints := filepath.Join(t.TempDir(), "out.hints")
	for _, tc := range []struct {
		argv  []string
		days  int
		hints string
	}{
		{[]string{"-days", "2", "-templates", "6"}, 2, ""},
		{[]string{"-days", "2", "-templates", "6", "-parallelism", "1", "-hints", hints}, 2, hints},
	} {
		var out bytes.Buffer
		if err := run(tc.argv, &out); err != nil {
			t.Fatalf("qoadvisor %v: %v", tc.argv, err)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		// Banner, blank, column header, one row per day, blank, two
		// summary lines, then the hint-file line when one was asked for.
		want := 3 + tc.days + 3
		if tc.hints != "" {
			want++
		}
		if len(lines) != want {
			t.Fatalf("qoadvisor %v: %d lines, want %d:\n%s", tc.argv, len(lines), want, out.String())
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
		if tc.hints == "" {
			continue
		}
		f, err := os.Open(tc.hints)
		if err != nil {
			t.Fatal(err)
		}
		file, err := sis.Parse(f)
		f.Close()
		if err != nil {
			t.Errorf("-hints wrote a file sis.Parse rejects: %v", err)
		} else if file.Day != tc.days {
			t.Errorf("hint file is for day %d, want %d", file.Day, tc.days)
		}
	}
}

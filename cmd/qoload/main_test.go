package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"qoadvisor/internal/load"
)

// TestRun drives the harness from argv: command lines it cannot run fail
// before touching a server — flags that do not parse as usage errors
// (exit 2), the rest as errors (exit 1) — and a minimal -selfhost run loads its own two-node cluster and reports
// the phase it ran, as JSON on stdout when -out is empty.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		argv  []string
		err   string
		usage bool
	}{
		{[]string{"-selfhost", "-phases", "s:1s@-5"}, "rate outside", false},
		{[]string{"-selfhost", "-phases", "nocolon@5"}, "want name:duration@rate", false},
		{[]string{"-selfhost", "-phases", ""}, "empty phase spec", false},
		{[]string{"-bogus"}, "usage", true},
		{[]string{"-workers", "many"}, "usage", true},
		{[]string{}, "one of -cluster or -selfhost is required", false},
		{[]string{"-cluster", "http://127.0.0.1:1", "-stall", "1s"}, "-stall requires -selfhost", false},
		{[]string{"-cluster", "http://127.0.0.1:1", "-incident-dir", "d"}, "-incident-dir requires -selfhost", false},
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

	argv := []string{"-selfhost", "-phases", "steady:300ms@20", "-templates", "8", "-batch", "2", "-workers", "4", "-out", "", "-fleet-check"}
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
}

package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
)

// TestAuditSurfacesAgree holds the two audit surfaces to one answer:
// over nodetest's steering session, the one internal/audit's
// TestQueriesGolden pins (ranks and rewards over real HTTP, hint
// rollovers, a quarantine and its restore, three checkpoint barriers),
// each /v2/audit answer, fetched through the typed client and put
// through the text renderer, is what `qoserved audit` prints for the
// same journal directory.
func TestAuditSurfacesAgree(t *testing.T) {
	ctx := context.Background()
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1024})
	dir := j.Dir()
	model := filepath.Join(dir, serve.SnapshotFile)
	srv := serve.New(serve.Config{Seed: 42, WAL: j, SnapshotPath: model})
	_, cl := nodetest.Serve(t, srv)
	s := nodetest.Steer(t, cl, srv, func() { srv.Ingestor().Quiesce()() })
	srv.Ingestor().Drain()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	// The second checkpoint seeds as-of from -model.
	if err := os.WriteFile(model, s.Barriers[1].Snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	ckpts := make([]uint64, len(s.Barriers))
	for i, b := range s.Barriers {
		ckpts[i] = b.LSN
	}

	agree := func(argv []string, render func(io.Writer) error) {
		t.Helper()
		var want strings.Builder
		if err := render(&want); err != nil {
			t.Fatal(err)
		}
		got, err := runQuiet(t, append([]string{"audit"}, append(argv, "-wal-dir", dir)...)...)
		if err != nil {
			t.Fatalf("qoserved audit %v: %v", argv, err)
		}
		if got != want.String() || got == "" {
			t.Errorf("qoserved audit %v prints\n%s\nthe route's answer renders\n%s", argv, got, want.String())
		}
	}

	from, to := fmt.Sprint(ckpts[0]+1), fmt.Sprint(ckpts[1])
	for _, tc := range []struct {
		argv   []string
		filter url.Values
	}{
		{nil, nil},
		{[]string{"-audit-type", "reward_batch,train_mark"}, url.Values{"type": {"reward_batch,train_mark"}}},
		{[]string{"-audit-type", "hint_rollover", "-template-hash", "abc123"}, url.Values{"type": {"hint_rollover"}, "template": {"abc123"}}},
		{[]string{"-template-hash", "abc123"}, url.Values{"template": {"abc123"}}},
		{[]string{"-event", s.A[12]}, url.Values{"event": {s.A[12]}}},
		{[]string{"-audit-from", from, "-audit-to", to}, url.Values{"fromLsn": {from}, "toLsn": {to}}},
		{[]string{"-audit-type", "rank", "-audit-limit", "5"}, url.Values{"type": {"rank"}, "limit": {"5"}}},
	} {
		// The CLI lists every match unless given a limit; the route
		// pages, at most 1,000 rows.
		filter := url.Values{"limit": {"1000"}}
		for k, v := range tc.filter {
			filter[k] = v
		}
		resp, err := cl.AuditRecords(ctx, filter)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Limited != (tc.filter.Get("limit") != "") {
			t.Fatalf("records %v: limited=%v", filter, resp.Limited)
		}
		agree(append([]string{"records"}, tc.argv...), func(w io.Writer) error {
			for _, rec := range resp.Records {
				if err := audit.WriteRecord(w, rec); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, event := range []string{s.A[12], s.B[15], s.C[8], "ev-no-such-event"} {
		tr, err := cl.AuditDecision(ctx, event)
		if err != nil {
			t.Fatal(err)
		}
		agree([]string{"decision", "-event", event}, func(w io.Writer) error { return audit.WriteDecision(w, tr) })
	}
	for _, hash := range []uint64{0xabc123, 0xdef456, 0x5eed} {
		th, err := cl.AuditTemplate(ctx, api.TemplateHash(hash))
		if err != nil {
			t.Fatal(err)
		}
		agree([]string{"template", "-template-hash", fmt.Sprintf("%x", hash)}, func(w io.Writer) error { return audit.WriteTemplate(w, th) })
	}
	// As-of before, at and after the seeding checkpoint, and at the
	// journal's end (each surface's default).
	for _, lsn := range append(ckpts, 0) {
		res, err := cl.AuditAsOf(ctx, lsn)
		if err != nil {
			t.Fatal(err)
		}
		if seeded := lsn == 0 || lsn >= ckpts[1]; res.SnapshotSeeded != seeded {
			t.Errorf("as-of(%d): seeded=%v, want %v", lsn, res.SnapshotSeeded, seeded)
		}
		agree([]string{"asof", "-lsn", fmt.Sprint(lsn)}, func(w io.Writer) error { return audit.WriteAsOf(w, res, model) })
	}
	// A bound past the journal's end is refused on both surfaces, with one
	// message: a 400 on the route, an error (exit 1) from the CLI, and no
	// model claiming records the journal never held.
	const pastEnd = 999999
	_, routeErr := cl.AuditAsOf(ctx, pastEnd)
	var apiErr *api.Error
	if !errors.As(routeErr, &apiErr) || apiErr.HTTPStatus != http.StatusBadRequest || apiErr.Code != api.CodeInvalidRequest {
		t.Fatalf("route as-of(%d): %v, want a 400 invalid_request", pastEnd, routeErr)
	}
	out := filepath.Join(t.TempDir(), "asof.model")
	got, cliErr := runQuiet(t, "audit", "asof", "-lsn", fmt.Sprint(pastEnd), "-wal-dir", dir, "-audit-out", out)
	if cliErr == nil || cliErr.Error() != apiErr.Error() || got != "" {
		t.Errorf("qoserved audit asof -lsn %d: printed %q, err %v; the route refused with %v", pastEnd, got, cliErr, apiErr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("the refused as-of wrote %s (stat: %v)", out, err)
	}
	if !strings.Contains(apiErr.Message, "past its end") {
		t.Errorf("route refusal %q does not say the bound is past the journal's end", apiErr.Message)
	}
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/audit"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// TestAuditSurfacesAgree holds the two audit surfaces to one answer:
// over the steering session internal/audit's TestQueriesGolden scripts
// (ranks and rewards over real HTTP, hint rollovers, a quarantine and
// its restore, three checkpoint barriers), each /v2/audit answer,
// fetched through the typed client and put through the text renderer,
// is what `qoserved audit` prints for the same journal directory.
func TestAuditSurfacesAgree(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	model := filepath.Join(dir, serve.SnapshotFile)
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync, SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Seed: 42, WAL: j, SnapshotPath: model})
	t.Cleanup(func() { srv.Close(); j.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)

	rank := func(n, salt int) []string {
		t.Helper()
		jobs := make([]api.RankRequest, n)
		for i := range jobs {
			jobs[i] = api.RankRequest{
				TemplateHash: api.TemplateHash(uint64(salt)<<32 | uint64(i)),
				Span:         []int{3 + (i+salt)%50, 60 + (i*7+salt)%50, 120 + i%30},
				RowCount:     float64(1000 * (i + 1)),
			}
		}
		resp, err := cl.RankBatch(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, n)
		for i, res := range resp.Results {
			if res.Error != nil {
				t.Fatalf("job %d rejected: %v", i, res.Error)
			}
			ids[i] = res.EventID
		}
		return ids
	}
	reward := func(ids []string, v float64) {
		t.Helper()
		events := make([]api.RewardEvent, len(ids))
		for i, id := range ids {
			val := v + float64(i)*0.01
			events[i] = api.RewardEvent{EventID: id, Reward: &val}
		}
		if resp, err := cl.RewardBatch(ctx, events); err != nil || resp.Queued != len(ids) {
			t.Fatalf("queued %d of %d rewards: %v", resp.Queued, len(ids), err)
		}
		srv.Ingestor().Quiesce()()
	}
	hints := func(hs ...sis.Hint) {
		t.Helper()
		if _, err := srv.InstallHints(hs); err != nil {
			t.Fatal(err)
		}
	}
	quarantine := func(action string) {
		t.Helper()
		if _, err := cl.Quarantine(ctx, 0xabc123, action); err != nil {
			t.Fatal(err)
		}
	}
	var ckpts []uint64
	var seed []byte // the second checkpoint, which seeds as-of from -model
	barrier := func() {
		t.Helper()
		var buf bytes.Buffer
		lsn, err := srv.BootstrapSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ckpts = append(ckpts, lsn); len(ckpts) == 2 {
			seed = buf.Bytes()
		}
	}

	cat := rules.NewCatalog()
	idsA := rank(20, 1)
	reward(idsA[:10], 0.5)
	hints(sis.Hint{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(40), Day: 3})
	quarantine(api.QuarantineActionQuarantine)
	barrier()
	reward(idsA[10:], 0.9)
	idsB := rank(17, 2)
	reward(idsB[:13], 0.25)
	hints(
		sis.Hint{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(41), Day: 4},
		sis.Hint{TemplateHash: 0xdef456, TemplateID: "T0099", Flip: cat.FlipFor(42), Day: 4},
	)
	barrier()
	quarantine(api.QuarantineActionRestore)
	idsC := rank(9, 3)
	reward(idsC, 0.7)
	hints(sis.Hint{TemplateHash: 0xdef456, TemplateID: "T0099", Flip: cat.FlipFor(42), Day: 5})
	barrier()
	reward(idsB[13:], 0.1)
	srv.Ingestor().Drain()
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(model, seed, 0o644); err != nil {
		t.Fatal(err)
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
		{[]string{"-event", idsA[12]}, url.Values{"event": {idsA[12]}}},
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
	for _, event := range []string{idsA[12], idsB[15], idsC[8], "ev-no-such-event"} {
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

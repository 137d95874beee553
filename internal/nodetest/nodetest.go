// Package nodetest is the one rig for tests that need a journaled
// steering node: a journal on a temporary directory (Journal), a node
// served over httptest with a typed client (Serve), the rank and reward
// requests the rigs share (Rank, Reward), a wait for the journal's
// reclaimer (WaitReclaimed), and the scripted steering session (Steer)
// that internal/audit's queries.golden pins.
//
// A node is anything with ServeHTTP and Close, and the session reaches
// the node through two of its methods, so this package imports none of
// the packages whose own tests use it (serve, replicate, load, fleet).
// Cleanup runs in one order: HTTP server, then node, then journal, all
// before the temporary directory is removed.
//
// Only _test.go files import this package: internal/lint's
// TestNoBinaryLinksTestOnlyPackages holds that line.
package nodetest

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// Journal opens a journal with opts, on a fresh t.TempDir() when
// opts.Dir is empty, and closes it at cleanup: after every cleanup
// registered later (a node served on it), before the directory's
// removal.
func Journal(t testing.TB, opts wal.Options) *wal.WAL {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	j, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// node is a steering node as a test serves it: *serve.Server,
// *replicate.Follower.
type node interface {
	http.Handler
	Close()
}

// Serve serves n over httptest and returns the server and a typed
// client of it. At cleanup it closes the HTTP server, then n, so n's
// own goroutines (its reward ingestor) stop before its journal closes.
func Serve(t testing.TB, n node) (*httptest.Server, *client.Client) {
	t.Helper()
	ts := httptest.NewServer(n)
	t.Cleanup(func() {
		ts.Close()
		n.Close()
	})
	return ts, client.New(ts.URL)
}

// Rank steers n bandit-path jobs in one /v2/rank batch and returns
// their event IDs. Job i of salt s is template s<<32|i with a
// three-rule span; a job a hint answers has no event and fails the test.
func Rank(t testing.TB, cl *client.Client, n, salt int) []string {
	t.Helper()
	jobs := make([]api.RankRequest, n)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(uint64(salt)<<32 | uint64(i)),
			Span:         []int{3 + (i+salt)%50, 60 + (i*7+salt)%50, 120 + i%30},
			RowCount:     float64(1000 * (i + 1)),
		}
	}
	resp, err := cl.RankBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, n)
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("job %d rejected: %v", i, res.Error)
		}
		if res.EventID == "" {
			t.Fatalf("job %d took the hint path", i)
		}
		ids = append(ids, res.EventID)
	}
	return ids
}

// Reward posts one /v2/reward batch, v + 0.01·i for the i-th event,
// and requires every reward queued.
func Reward(t testing.TB, cl *client.Client, ids []string, v float64) {
	t.Helper()
	events := make([]api.RewardEvent, len(ids))
	for i, id := range ids {
		val := v + float64(i)*0.01
		events[i] = api.RewardEvent{EventID: id, Reward: &val}
	}
	resp, err := cl.RewardBatch(context.Background(), events)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Queued != len(ids) {
		t.Fatalf("queued %d of %d rewards: %+v", resp.Queued, len(ids), resp.Rejected)
	}
}

// WaitReclaimed waits until the journal's reclaimer has unlinked every
// segment compaction detached: the first segment on disk is the first
// the journal retains. A checkpoint returns before those unlinks, so a
// test that reads the directory after one waits here first.
func WaitReclaimed(t testing.TB, j *wal.WAL) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		first, _ := j.Window()
		segs, err := wal.Segments(j.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 0 && segs[0].FirstLSN == first {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("compacted segments still on disk after 10s: %d listed, the journal retains from LSN %d", len(segs), first)
		}
		time.Sleep(time.Millisecond)
	}
}

// steerable is what the session needs of a node besides its routes
// (*serve.Server has both).
type steerable interface {
	InstallHints([]sis.Hint) (uint64, error)
	BootstrapSnapshot(io.Writer) (uint64, error)
}

// Session is what Steer returns: the event IDs of its three rank
// batches and its checkpoint barriers in order.
type Session struct {
	A, B, C  []string
	Barriers []Barrier
}

// Barrier is one checkpoint barrier of the session: its watermark and
// the snapshot it wrote.
type Barrier struct {
	LSN      uint64
	Snapshot []byte
}

// Steer runs the steering session on a node with no traffic yet. Ranks
// (A: 20 jobs, B: 17, C: 9) and rewards go over cl, the quarantine of
// template 0xabc123 and its restore over cl's /v2/quarantine, three
// hint rollovers (0xabc123, then 0xabc123 and 0xdef456, then 0xdef456)
// through n.InstallHints, and three checkpoint barriers through
// n.BootstrapSnapshot: Checkpoint's barrier without its compaction,
// so the whole history stays on the journal. A's second half is
// rewarded after the first barrier (ranked before, rewarded after), and
// B[13:] is rewarded last, after the third. settle runs after every
// reward batch, so each rank sees the same weights on every run. The
// caller drains what the last batch left below the training cadence.
func Steer(t testing.TB, cl *client.Client, n steerable, settle func()) Session {
	t.Helper()
	ctx := context.Background()
	cat := rules.NewCatalog()
	var s Session
	reward := func(ids []string, v float64) {
		t.Helper()
		Reward(t, cl, ids, v)
		settle()
	}
	hints := func(hs ...sis.Hint) {
		t.Helper()
		if _, err := n.InstallHints(hs); err != nil {
			t.Fatal(err)
		}
	}
	quarantine := func(action string) {
		t.Helper()
		if _, err := cl.Quarantine(ctx, 0xabc123, action); err != nil {
			t.Fatal(err)
		}
	}
	barrier := func() {
		t.Helper()
		var buf bytes.Buffer
		lsn, err := n.BootstrapSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		s.Barriers = append(s.Barriers, Barrier{lsn, buf.Bytes()})
	}

	s.A = Rank(t, cl, 20, 1)
	reward(s.A[:10], 0.5)
	hints(sis.Hint{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(40), Day: 3})
	quarantine(api.QuarantineActionQuarantine)
	barrier()
	reward(s.A[10:], 0.9)
	s.B = Rank(t, cl, 17, 2)
	reward(s.B[:13], 0.25)
	hints(
		sis.Hint{TemplateHash: 0xabc123, TemplateID: "T0042", Flip: cat.FlipFor(41), Day: 4},
		sis.Hint{TemplateHash: 0xdef456, TemplateID: "T0099", Flip: cat.FlipFor(42), Day: 4},
	)
	barrier()
	quarantine(api.QuarantineActionRestore)
	s.C = Rank(t, cl, 9, 3)
	reward(s.C, 0.7)
	hints(sis.Hint{TemplateHash: 0xdef456, TemplateID: "T0099", Flip: cat.FlipFor(42), Day: 5})
	barrier()
	reward(s.B[13:], 0.1)
	return s
}

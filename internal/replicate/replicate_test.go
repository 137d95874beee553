package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// primaryRig is a WAL-backed primary served over real HTTP.
type primaryRig struct {
	srv  *serve.Server
	ts   *httptest.Server
	cl   *client.Client
	j    *wal.WAL
	cat  *rules.Catalog
	dir  string
	snap string
}

func newPrimary(t *testing.T, segBytes int64) *primaryRig {
	t.Helper()
	return servePrimary(t, wal.Options{Mode: wal.ModeAsync, SegmentBytes: segBytes}, serve.Config{Seed: 42})
}

// servePrimary serves cfg on a journal opened with opts.
func servePrimary(t *testing.T, opts wal.Options, cfg serve.Config) *primaryRig {
	t.Helper()
	j := nodetest.Journal(t, opts)
	cfg.WAL = j
	srv := serve.New(cfg)
	ts, cl := nodetest.Serve(t, srv)
	return &primaryRig{srv: srv, ts: ts, cl: cl, j: j, cat: rules.NewCatalog(),
		dir: j.Dir(), snap: filepath.Join(j.Dir(), "model.snap")}
}

func (p *primaryRig) hints(n, day int) []sis.Hint {
	hints := make([]sis.Hint, n)
	for i := range hints {
		hints[i] = sis.Hint{
			TemplateHash: uint64(0x5000 + i),
			TemplateID:   fmt.Sprintf("T%04d", i),
			Flip:         p.cat.FlipFor(40 + i%40),
			Day:          day,
		}
	}
	return hints
}

// traffic drives bandit-path ranks and rewards a prefix of them.
func (p *primaryRig) traffic(t *testing.T, n, salt int, rewardFrac float64) {
	t.Helper()
	jobs := make([]api.RankRequest, n)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(uint64(salt)<<32 | uint64(i)),
			Span:         []int{2 + (i+salt)%60, 70 + (i*3+salt)%50, 130 + i%40},
			RowCount:     float64(500 * (i + 1)),
		}
	}
	resp, err := p.cl.RankBatch(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var events []api.RewardEvent
	for i, res := range resp.Results {
		if res.Error != nil {
			t.Fatalf("job %d: %v", i, res.Error)
		}
		if res.EventID != "" && float64(i) < rewardFrac*float64(n) {
			v := 0.25 + float64(i%4)*0.25
			events = append(events, api.RewardEvent{EventID: res.EventID, Reward: &v})
		}
	}
	if len(events) > 0 {
		rresp, err := p.cl.RewardBatch(context.Background(), events)
		if err != nil {
			t.Fatal(err)
		}
		if rresp.Queued != len(events) {
			t.Fatalf("queued %d/%d rewards: %+v", rresp.Queued, len(events), rresp.Rejected)
		}
	}
}

// settle drains the primary's ingestion and syncs its journal so
// "caught up" has a fixed meaning.
func (p *primaryRig) settle(t *testing.T) {
	t.Helper()
	p.srv.Ingestor().Drain()
	if err := p.j.Sync(); err != nil {
		t.Fatal(err)
	}
}

func startFollower(t *testing.T, p *primaryRig) *Follower {
	t.Helper()
	return startFollowerVia(t, p, p.ts.URL)
}

// startFollowerVia starts a follower of p that reaches it through url.
func startFollowerVia(t *testing.T, p *primaryRig, url string) *Follower {
	t.Helper()
	f, err := Start(Config{
		Primary:          url,
		Seed:             777, // deliberately different: must not affect convergence
		pollWait:         200 * time.Millisecond,
		reconnectBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func caughtUp(t *testing.T, f *Follower) {
	t.Helper()
	if err := f.WaitCaughtUp(context.Background(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
}

// modelBytes captures a service's persisted form with the watermark
// line neutralized: primary and follower agree on every weight and
// open event, but sit at different covered-LSN positions by design.
func modelBytes(t *testing.T, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		t.Fatal("empty model")
	}
	head := b[:nl]
	if i := bytes.LastIndex(head, []byte(" wal=")); i >= 0 {
		head = head[:i]
	}
	return append(append([]byte{}, head...), b[nl:]...)
}

// postRaw sends a body with a pinned request ID and returns the raw
// response bytes — the byte-identical convergence comparator.
func postRaw(t *testing.T, url, rid string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.RequestIDHeader, rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestDefaultConfigValues pins what a follower runs with when only the
// primary is given: a 10 s tail long-poll, asked of the primary on the
// wire, and a 500 ms first reconnect backoff. They are constants; only
// this package's tests shorten them.
func TestDefaultConfigValues(t *testing.T) {
	p := newPrimary(t, 1<<20)
	waits := make(chan string, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == api.RouteV2WAL {
			select {
			case waits <- r.URL.Query().Get("wait"):
			default:
			}
		}
		p.srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	f, err := Start(Config{Primary: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"pollWait", f.cfg.pollWait, 10 * time.Second},
		{"reconnectBackoff", f.cfg.reconnectBackoff, 500 * time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	select {
	case got := <-waits:
		if got != "10000" {
			t.Errorf("tail asked the primary for wait=%s ms, want 10000", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower never opened a tail stream")
	}
}

// TestClusterSmokeConvergence is the acceptance core (and the CI
// cluster smoke): a follower bootstraps from a live primary mid-run,
// tails the journal through more traffic and a hint rollover, and
// converges — its /v2/rank responses are byte-identical to the
// primary's for the same request stream, and its model is
// byte-identical up to the watermark position.
func TestClusterSmokeConvergence(t *testing.T) {
	p := newPrimary(t, 1<<20)

	// Pre-bootstrap history: traffic and a first hint table.
	p.traffic(t, 40, 1, 0.6)
	if _, err := p.srv.InstallHints(p.hints(10, 3)); err != nil {
		t.Fatal(err)
	}
	p.settle(t)

	f := startFollower(t, p)
	if f.applied.Load() == 0 {
		t.Fatal("bootstrap watermark is 0: snapshot was not checkpoint-consistent")
	}

	// Post-bootstrap: more traffic AND a rollover the follower must
	// replicate in decision order. The 300-reward batch crosses a
	// count-based training boundary (bandit.DefaultTrainEvery) on both
	// nodes.
	p.traffic(t, 600, 2, 0.5)
	if _, err := p.srv.InstallHints(p.hints(14, 4)); err != nil {
		t.Fatal(err)
	}
	p.traffic(t, 20, 3, 0.4)
	p.settle(t)
	caughtUp(t, f)

	// Hint table replicated exactly: size, content, and generation.
	wantHints, wantGen := p.srv.Cache().Export()
	gotHints, gotGen := f.Server().Cache().Export()
	if wantGen != gotGen || len(wantHints) != len(gotHints) {
		t.Fatalf("hint table diverged: primary gen %d (%d hints), follower gen %d (%d hints)",
			wantGen, len(wantHints), gotGen, len(gotHints))
	}
	for i := range wantHints {
		if wantHints[i] != gotHints[i] {
			t.Fatalf("hint %d diverged: %+v != %+v", i, wantHints[i], gotHints[i])
		}
	}

	// Every train mark is a training run; a run beyond them is a
	// count-based pass the follower crossed while tailing.
	if rs := f.cur.Load().applier.ReplayStats(); rs.TrainRuns <= rs.TrainMarks {
		t.Fatalf("follower ran %d training passes for %d train marks: no count-based boundary in the tail", rs.TrainRuns, rs.TrainMarks)
	}

	// Model replicated byte-identically (modulo the watermark position).
	want := modelBytes(t, p.srv.Bandit().Save)
	got := modelBytes(t, f.Server().Bandit().Save)
	if !bytes.Equal(want, got) {
		i := 0
		for i < len(want) && i < len(got) && want[i] == got[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("model diverged at byte %d\nprimary: ...%q\nfollower: ...%q",
			i, want[lo:min(len(want), i+80)], got[lo:min(len(got), i+80)])
	}

	// Convergence acceptance: the same hint-covered request stream with
	// the same request ID yields byte-identical responses from both
	// nodes. (Hint decisions are the production fast path and carry the
	// full response surface: source, flip, hintDay, generation.)
	jobs := make([]api.RankRequest, 0, len(wantHints))
	for _, h := range wantHints {
		jobs = append(jobs, api.RankRequest{TemplateHash: api.TemplateHash(h.TemplateHash), Span: []int{5, 55}})
	}
	body, err := json.Marshal(api.BatchRankRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	pst, praw := postRaw(t, p.ts.URL+api.RouteV2Rank, "conv-1", body)
	fts, _ := nodetest.Serve(t, f)
	fst, fraw := postRaw(t, fts.URL+api.RouteV2Rank, "conv-1", body)
	if pst != http.StatusOK || fst != http.StatusOK {
		t.Fatalf("status %d / %d", pst, fst)
	}
	if !bytes.Equal(praw, fraw) {
		t.Fatalf("rank responses diverged\nprimary:  %s\nfollower: %s", praw, fraw)
	}

	// Bandit-path agreement: the follower's greedy choice equals the
	// primary model's greedy choice (exploration aside, the two nodes
	// embody the same policy).
	job := api.RankRequest{TemplateHash: 0xfeed, Span: []int{7, 33, 90}}
	fresp, err := f.Server().Rank(job)
	if err != nil {
		t.Fatal(err)
	}
	if fresp.Source != api.SourceBandit || fresp.EventID != "" {
		t.Fatalf("follower bandit rank = %+v", fresp)
	}
	fstats := f.Stats()
	if fstats.Role != api.RoleFollower || fstats.LagRecords != 0 || fstats.AppliedLSN == 0 {
		t.Fatalf("follower stats = %+v", fstats)
	}
	// The follower's stats flow through its HTTP surface too.
	st, err := client.New(fts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Replication == nil || st.Replication.Role != api.RoleFollower || st.Replication.LeaderURL != p.ts.URL {
		t.Fatalf("follower /v2/stats replication = %+v", st.Replication)
	}
}

// TestFollowerLiveTailAndReconnects lets the follower ride through
// many short-lived streams (tight long-poll windows force constant
// clean reconnects) while the primary keeps writing — every record
// must be applied exactly once, in order.
func TestFollowerLiveTailAndReconnects(t *testing.T) {
	p := newPrimary(t, 1<<20)
	p.traffic(t, 10, 1, 0.5)
	p.settle(t)

	f, err := Start(Config{
		Primary:          p.ts.URL,
		Seed:             1,
		pollWait:         30 * time.Millisecond, // stream closes almost immediately when idle
		reconnectBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for wave := 0; wave < 5; wave++ {
		p.traffic(t, 15, 10+wave, 0.6)
		time.Sleep(50 * time.Millisecond) // interleave waves with stream teardowns
	}
	if _, err := p.srv.InstallHints(p.hints(6, 9)); err != nil {
		t.Fatal(err)
	}
	p.settle(t)
	caughtUp(t, f)

	if got, want := f.applied.Load(), p.j.LastLSN(); got != want {
		t.Fatalf("applied %d, journal end %d", got, want)
	}
	want := modelBytes(t, p.srv.Bandit().Save)
	got := modelBytes(t, f.Server().Bandit().Save)
	if !bytes.Equal(want, got) {
		t.Fatal("model diverged across reconnecting streams")
	}
	if _, gen := f.Server().Cache().Export(); gen != 1 {
		t.Fatalf("hint rollover not applied through live tail (gen %d)", gen)
	}
}

// TestFollowerHoldsOneHintTable: a replicated rollover lands in the
// follower's cache and nowhere else — the applier that restored the table
// keeps no decoded copy beside it — while an offline Recover of the same
// journal, which has no cache to restore into, still hands the table back.
func TestFollowerHoldsOneHintTable(t *testing.T) {
	p := newPrimary(t, 1<<20)
	p.traffic(t, 10, 1, 0.5)
	p.settle(t)
	f := startFollower(t, p)

	hints := p.hints(14, 4) // ascending hash: install order is export order
	if _, err := p.srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}
	p.settle(t)
	caughtUp(t, f)

	ap := f.cur.Load().applier
	if ap.Rollovers != 1 || ap.HintGen != 1 {
		t.Fatalf("applier saw %d rollovers, generation %d; want the one replicated rollover", ap.Rollovers, ap.HintGen)
	}
	if ap.Hints != nil {
		t.Errorf("follower's applier retains %d decoded hints beside the cache it restored", len(ap.Hints))
	}
	if got, gen := f.Server().Cache().Export(); gen != 1 || !slices.Equal(got, hints) {
		t.Errorf("follower cache: generation %d, %d hints; want generation 1 and the installed table", gen, len(got))
	}
	rec, err := serve.Recover(wal.DirSource{Dir: p.dir}, "", 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rec.HintGen != 1 || !slices.Equal(rec.Hints, hints) {
		t.Errorf("offline Recover: generation %d, %d hints; want generation 1 and the installed table", rec.HintGen, len(rec.Hints))
	}
}

// TestFollowerResyncAfterGap forces the unrecoverable-tail case: the
// follower's position is compacted away on the primary, the stream
// answers wal_gap, and the follower must re-bootstrap on its own and
// converge again.
func TestFollowerResyncAfterGap(t *testing.T) {
	p := newPrimary(t, 1024) // tiny segments: checkpoints compact aggressively
	p.traffic(t, 30, 1, 0.7)
	p.settle(t)

	// The follower bootstraps, then is cut off — its tails wait at the
	// proxy — while traffic and checkpoints age the primary past it.
	px := newStreamProxy(t, p, func(_ int, _ uint64, body []byte) (string, []byte) {
		return api.WALStreamContentType, body
	})
	f := startFollowerVia(t, p, px.ts.URL)
	parked := f.applied.Load()
	for round := 0; round < 4; round++ {
		p.traffic(t, 25, 40+round, 0.8)
		if _, err := p.srv.Checkpoint(p.snap); err != nil {
			t.Fatal(err)
		}
	}
	// (An empty retained window — everything compacted — starts past the
	// parked position too: Window reports it as LastLSN+1.)
	if first, _ := p.j.Window(); first <= parked+1 {
		t.Fatalf("compaction did not pass the parked follower at %d (first=%d); test is vacuous", parked, first)
	}
	p.settle(t)
	px.release()

	waitFor(t, "a re-bootstrap after wal_gap", func() bool { return f.resyncs.Load() > 0 })
	caughtUp(t, f)
	want := modelBytes(t, p.srv.Bandit().Save)
	got := modelBytes(t, f.Server().Bandit().Save)
	if !bytes.Equal(want, got) {
		t.Fatal("model diverged after gap re-sync")
	}
}

// TestFollowerResyncsOnFrontierRegression pins the journal-reset
// defense: a primary whose durable frontier is BEHIND the follower's
// applied LSN is advertising a different history (wal-dir wiped or
// replaced), and the follower must re-bootstrap instead of sitting on
// an empty stream until the new journal grows past its position and
// grafts foreign records onto its state.
func TestFollowerResyncsOnFrontierRegression(t *testing.T) {
	p := newPrimary(t, 1<<20)
	p.traffic(t, 20, 1, 0.6)
	p.settle(t)

	f := startFollower(t, p)
	caughtUp(t, f)

	// Simulate the reset from the follower's side: it believes it has
	// applied far more than the primary's journal now holds — exactly
	// the state after the primary lost its wal-dir and restarted
	// numbering from 1.
	f.applied.Store(p.j.SyncedLSN() + 1000)

	deadline := time.Now().Add(15 * time.Second)
	for f.resyncs.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if f.resyncs.Load() == 0 {
		t.Fatal("follower never re-bootstrapped after frontier regression")
	}
	caughtUp(t, f)
	if lag := f.Lag(); lag != 0 {
		t.Fatalf("phantom lag %d after reset re-sync (stale frontier kept)", lag)
	}
	want := modelBytes(t, p.srv.Bandit().Save)
	got := modelBytes(t, f.Server().Bandit().Save)
	if !bytes.Equal(want, got) {
		t.Fatal("model diverged after reset re-sync")
	}
}

// TestFollowerPastJournalEndResyncs: a follower whose applied LSN lies
// past the primary journal's last record asks for records that journal
// never wrote. The primary refuses the tail with wal_gap rather than
// long-polling for them, and the follower re-bootstraps on that answer
// and converges again. The proxy withholds the durable-frontier header,
// the follower's other way to see the journal behind it, so only the
// refusal can start the re-bootstrap.
func TestFollowerPastJournalEndResyncs(t *testing.T) {
	p := newPrimary(t, 1<<20)
	p.traffic(t, 20, 1, 0.6)
	p.settle(t)
	px := newStreamProxy(t, p, func(_ int, _ uint64, body []byte) (string, []byte) {
		return api.WALStreamContentType, body
	})
	px.hideFrontier.Store(true)
	px.release()
	f := startFollowerVia(t, p, px.ts.URL)
	caughtUp(t, f)

	past := p.j.LastLSN() + 1000
	f.applied.Store(past)
	waitFor(t, "a re-bootstrap from past the journal's end", func() bool { return f.resyncs.Load() > 0 })
	if got := px.answered(past); got != http.StatusGone {
		t.Errorf("the primary answered a tail from %d, past its last LSN %d, with status %d, want 410 wal_gap", past, p.j.LastLSN(), got)
	}
	caughtUp(t, f)
	want := modelBytes(t, p.srv.Bandit().Save)
	got := modelBytes(t, f.Server().Bandit().Save)
	if !bytes.Equal(want, got) {
		t.Fatal("model diverged after the re-sync")
	}
}

// TestFollowerRejectsWritesOverHTTP pins the end-to-end redirect
// contract through a real follower: rewards and rollovers bounce with
// not_primary + the leader URL.
func TestFollowerRejectsWritesOverHTTP(t *testing.T) {
	p := newPrimary(t, 1<<20)
	p.traffic(t, 5, 1, 0)
	p.settle(t)
	f := startFollower(t, p)
	fts, _ := nodetest.Serve(t, f)

	v := 1.0
	_, err := client.New(fts.URL).
		RewardBatch(context.Background(), []api.RewardEvent{{EventID: "x", Reward: &v}})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotPrimary || apiErr.Leader != p.ts.URL {
		t.Fatalf("follower reward error = %v", err)
	}
}

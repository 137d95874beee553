package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// testHints builds a small valid hint table.
func testHints(cat *rules.Catalog, n, day int) []sis.Hint {
	hints := make([]sis.Hint, n)
	for i := range hints {
		hints[i] = sis.Hint{
			TemplateHash: uint64(0x1000 + i),
			TemplateID:   fmt.Sprintf("T%04d", i),
			Flip:         cat.FlipFor(40 + i%40),
			Day:          day,
		}
	}
	return hints
}

// TestHintTableCrashRecovery is the satellite regression: before hint
// journaling, a crash restart restored the bandit but came back with
// an EMPTY hint cache — every steered template silently fell back to
// the bandit path. Now the rollover is journaled, so a restart after a
// rollover must serve the installed hints at the installed generation.
func TestHintTableCrashRecovery(t *testing.T) {
	r := newWALRig(t, 1<<20)
	cat := rules.NewCatalog()

	ids := nodetest.Rank(t, r.cl, 10, 1)
	nodetest.Reward(t, r.cl, ids[:6], 0.8)

	hints := testHints(cat, 9, 4)
	if _, err := r.srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}
	// A second rollover: recovery must finish on the NEWEST table and
	// generation, not the first one it sees.
	hints2 := testHints(cat, 12, 5)
	if _, err := r.srv.InstallHints(hints2); err != nil {
		t.Fatal(err)
	}
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}

	// "Crash" and recover from the journal alone (no snapshot ever taken).
	rec, err := Recover(wal.DirSource{Dir: r.dir}, "", 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rec.HintRollovers != 2 || rec.HintGen != 2 || len(rec.Hints) != len(hints2) {
		t.Fatalf("recovered rollovers=%d gen=%d hints=%d, want 2/2/%d",
			rec.HintRollovers, rec.HintGen, len(rec.Hints), len(hints2))
	}

	// A restarted server restores the table and serves it.
	srv2, _ := r.restart(t, Config{Seed: 42})
	resp, err := srv2.Rank(api.RankRequest{TemplateHash: api.TemplateHash(hints2[3].TemplateHash), Span: []int{50}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != api.SourceHint || resp.Flip != hints2[3].Flip.String() || resp.Generation != 2 {
		t.Fatalf("restart does not serve the rolled-over hint: %+v", resp)
	}
}

// TestHintTableSurvivesCompaction covers the re-journal-at-checkpoint
// discipline: checkpoints truncate covered segments, which can delete
// the original rollover record — the checkpoint must have re-appended
// the live table above its watermark so recovery still finds it.
func TestHintTableSurvivesCompaction(t *testing.T) {
	r := newWALRig(t, 1024) // tiny segments so checkpoints compact
	cat := rules.NewCatalog()

	hints := testHints(cat, 7, 3)
	if _, err := r.srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}
	// Traffic + checkpoints until the segment holding the rollover is
	// compacted away.
	for round := 0; round < 3; round++ {
		ids := nodetest.Rank(t, r.cl, 25, 20+round)
		nodetest.Reward(t, r.cl, ids[:20], 0.5)
		if _, err := r.srv.Checkpoint(r.snap); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.j.Stats(); st.TruncatedSegs == 0 {
		t.Fatalf("no compaction happened; test is vacuous: %+v", st)
	}

	rec, err := Recover(wal.DirSource{Dir: r.dir}, r.snap, 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rec.HintGen != 1 || len(rec.Hints) != len(hints) {
		t.Fatalf("hint table lost to compaction: gen=%d hints=%d", rec.HintGen, len(rec.Hints))
	}
	for i := range hints {
		if rec.Hints[i] != hints[i] {
			t.Fatalf("hint %d corrupted across checkpoint: %+v != %+v", i, rec.Hints[i], hints[i])
		}
	}
}

func getURL(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// openStream reads a /v2/wal response body with the journal's segment
// reader, the one a follower uses, and checks its header names from+1.
func openStream(tb testing.TB, body io.Reader, from uint64) *wal.SegmentReader {
	tb.Helper()
	sr, err := wal.NewSegmentReader(body, "stream")
	if err != nil {
		tb.Fatal(err)
	}
	if sr.NextLSN() != from+1 {
		tb.Fatalf("stream from %d starts at LSN %d", from, sr.NextLSN())
	}
	return sr
}

// readRecords drains one /v2/wal response into its records' LSNs.
func readRecords(t *testing.T, body io.Reader, from uint64) (lsns []uint64) {
	t.Helper()
	sr := openStream(t, body, from)
	for {
		lsn, _, err := sr.Next()
		if err == io.EOF {
			return lsns
		}
		if err != nil {
			t.Fatalf("reading record: %v", err)
		}
		lsns = append(lsns, lsn)
	}
}

// TestWALStreamCatchUpAndResume drives the streaming endpoint the way
// a follower does: full catch-up from 0, then resume-from-LSN after a
// torn connection, with every frame CRC-verified and dense.
func TestWALStreamCatchUpAndResume(t *testing.T) {
	r := newWALRig(t, 1<<20)
	cat := rules.NewCatalog()
	ids := nodetest.Rank(t, r.cl, 20, 3)
	nodetest.Reward(t, r.cl, ids[:15], 0.7)
	if _, err := r.srv.InstallHints(testHints(cat, 5, 2)); err != nil {
		t.Fatal(err)
	}
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}
	last := r.j.LastLSN()

	resp, err := http.Get(r.ts.URL + api.RouteV2WAL + "?from=0&wait=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != api.WALStreamContentType {
		t.Fatalf("stream status %d content-type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	frontier, err := strconv.ParseUint(resp.Header.Get(api.WALFrontierHeader), 10, 64)
	if err != nil || frontier < last {
		t.Fatalf("frontier header %q, journal end %d", resp.Header.Get(api.WALFrontierHeader), last)
	}

	// Read a prefix, then tear the connection mid-stream.
	sr := openStream(t, resp.Body, 0)
	var applied uint64
	for applied < last/2 {
		lsn, _, err := sr.Next()
		if err != nil {
			t.Fatalf("frame after %d: %v", applied, err)
		}
		if lsn != applied+1 {
			t.Fatalf("LSN gap: got %d after %d", lsn, applied)
		}
		applied = lsn
	}
	resp.Body.Close() // torn connection

	// Resume from the last applied LSN: the remainder arrives exactly
	// once, no gaps, no duplicates.
	resp2, err := http.Get(fmt.Sprintf("%s%s?from=%d&wait=100", r.ts.URL, api.RouteV2WAL, applied))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	lsns := readRecords(t, resp2.Body, applied)
	if uint64(len(lsns)) != last-applied {
		t.Fatalf("resume delivered %d frames, want %d", len(lsns), last-applied)
	}
	for i, lsn := range lsns {
		if lsn != applied+uint64(i)+1 {
			t.Fatalf("resume frame %d has LSN %d, want %d", i, lsn, applied+uint64(i)+1)
		}
	}

	// The stream long-polls: records appended while a tail stream is
	// open are delivered on that same connection.
	tail, err := http.Get(fmt.Sprintf("%s%s?from=%d&wait=3000", r.ts.URL, api.RouteV2WAL, last))
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()
	tailStream := openStream(t, tail.Body, last)
	frameCh := make(chan uint64, 16)
	go func() {
		for {
			lsn, _, err := tailStream.Next()
			if err != nil {
				close(frameCh)
				return
			}
			frameCh <- lsn
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the long-poll park
	nodetest.Rank(t, r.cl, 3, 77)
	deadline := time.After(5 * time.Second)
	got := 0
	for got < 3 {
		select {
		case _, ok := <-frameCh:
			if !ok {
				t.Fatal("tail stream closed before delivering new records")
			}
			got++
		case <-deadline:
			t.Fatalf("long-poll tail delivered %d of 3 new records", got)
		}
	}
}

// TestWALStreamIdleTailEndsWithItsClient: a tail request parked on an
// idle journal returns as soon as its client goes away, not at the end of
// its long-poll window — which a primary's http.Server.Shutdown would
// otherwise wait out whenever a follower was attached.
func TestWALStreamIdleTailEndsWithItsClient(t *testing.T) {
	r := newWALRig(t, 1<<20)
	streams := func(want int64, within time.Duration) time.Duration {
		t.Helper()
		start := time.Now()
		for r.srv.walStreams.Load() != want {
			if time.Since(start) > within {
				t.Fatalf("%d tail streams open after %v, want %d", r.srv.walStreams.Load(), within, want)
			}
			time.Sleep(time.Millisecond)
		}
		return time.Since(start)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.ts.URL+api.RouteV2WAL+"?from=0&wait=10000", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	streams(1, 5*time.Second)
	cancel()
	t.Logf("the tail handler returned %v after its client left", streams(0, 100*time.Millisecond))
}

// TestWALStreamErrors covers the replication surface's failure modes:
// gap after compaction (410), no WAL at all (409), follower node (421),
// bad from parameter (400).
func TestWALStreamErrors(t *testing.T) {
	t.Run("gap after compaction", func(t *testing.T) {
		r := newWALRig(t, 1024)
		for round := 0; round < 3; round++ {
			ids := nodetest.Rank(t, r.cl, 25, round)
			nodetest.Reward(t, r.cl, ids[:20], 0.5)
			if _, err := r.srv.Checkpoint(r.snap); err != nil {
				t.Fatal(err)
			}
		}
		if r.j.Stats().TruncatedSegs == 0 {
			t.Fatal("no compaction; test is vacuous")
		}
		resp, err := http.Get(r.ts.URL + api.RouteV2WAL + "?from=0")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGone {
			t.Fatalf("status %d, want 410", resp.StatusCode)
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != api.CodeWALGap {
			t.Fatalf("envelope %+v (%v)", env, err)
		}
	})

	t.Run("gap after full compaction", func(t *testing.T) {
		// One-byte segments seal after every record, so a checkpoint can
		// compact the whole journal away and leave the retained window
		// empty. A follower parked below the journal's end must still get
		// wal_gap — not an empty stream it would re-poll forever.
		r := newWALRig(t, 1)
		nodetest.Reward(t, r.cl, nodetest.Rank(t, r.cl, 5, 1), 0.5)
		deadline := time.Now().Add(5 * time.Second)
		for first, next := r.j.Window(); first < next; first, next = r.j.Window() {
			if time.Now().After(deadline) {
				t.Fatalf("journal never fully compacted (window %d..%d)", first, next)
			}
			if _, err := r.srv.Checkpoint(r.snap); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := http.Get(r.ts.URL + api.RouteV2WAL + "?from=1&wait=1")
		if err != nil {
			t.Fatal(err)
		}
		expectError(t, resp, http.StatusGone, api.CodeWALGap)
		// Parked exactly at the journal's end there is no gap.
		resp, err = http.Get(fmt.Sprintf("%s%s?from=%d&wait=1", r.ts.URL, api.RouteV2WAL, r.j.LastLSN()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("caught-up follower after full compaction: status %d, want 200", resp.StatusCode)
		}
	})

	t.Run("past the journal's end", func(t *testing.T) {
		// A resume LSN past the last record names records this journal
		// never wrote: wal_gap at once, not a segment header for them
		// and a long poll.
		r := newWALRig(t, 1<<20)
		nodetest.Reward(t, r.cl, nodetest.Rank(t, r.cl, 5, 1), 0.5)
		last := r.j.LastLSN()
		resp, err := http.Get(fmt.Sprintf("%s%s?from=%d", r.ts.URL, api.RouteV2WAL, last+1))
		if err != nil {
			t.Fatal(err)
		}
		env := decodeJSON[api.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusGone || env.Error.Code != api.CodeWALGap ||
			!strings.Contains(env.Error.Message, fmt.Sprintf("journal ends at LSN %d; from %d is past its end", last, last+1)) {
			t.Fatalf("status %d, envelope %+v; want 410 wal_gap naming the journal's end", resp.StatusCode, env)
		}
		// Parked exactly at the journal's end there is no gap.
		resp, err = http.Get(fmt.Sprintf("%s%s?from=%d&wait=1", r.ts.URL, api.RouteV2WAL, last))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("caught-up follower: status %d, want 200", resp.StatusCode)
		}
	})

	t.Run("wal disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Seed: 1})
		for _, route := range []string{api.RouteV2WAL, api.RouteV2WALSnapshot} {
			resp, err := http.Get(ts.URL + route)
			if err != nil {
				t.Fatal(err)
			}
			var env api.ErrorResponse
			json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict || env.Error.Code != api.CodeWALDisabled {
				t.Fatalf("%s: status %d code %q", route, resp.StatusCode, env.Error.Code)
			}
		}
	})

	t.Run("bad from", func(t *testing.T) {
		r := newWALRig(t, 1<<20)
		resp, err := http.Get(r.ts.URL + api.RouteV2WAL + "?from=banana")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})

	// A bootstrap whose checkpoint barrier fails (here: the journal is
	// gone, so the barrier's hint re-journal cannot append) must report
	// an error envelope — a bare 200 with an empty body would send the
	// joining follower into a silent re-bootstrap loop while hiding the
	// primary's fault.
	t.Run("barrier failure gets envelope", func(t *testing.T) {
		r := newWALRig(t, 1<<20)
		if _, err := r.srv.InstallHints(testHints(rules.NewCatalog(), 3, 1)); err != nil {
			t.Fatal(err)
		}
		if err := r.j.Close(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(r.ts.URL + api.RouteV2WALSnapshot)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
		var env api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error.Code != api.CodeInternal {
			t.Fatalf("envelope %+v (%v)", env, err)
		}
	})
}

// TestAuditAsOfRejectsFullyCompactedHistory: once checkpoints have
// compacted the whole journal away, an as-of below the checkpoint
// watermark cannot use the snapshot and would have to replay from LSN 1
// — records that no longer exist. The empty retained window must read
// as "everything through LastLSN is gone", not as "nothing was ever
// removed", or the server answers 200 with a model rebuilt from nothing.
func TestAuditAsOfRejectsFullyCompactedHistory(t *testing.T) {
	// One-byte segments seal after every record, so a checkpoint can
	// compact the whole journal.
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1})
	snap := filepath.Join(j.Dir(), "model.snap")
	srv, ts := newTestServer(t, Config{Seed: 42, WAL: j, SnapshotPath: snap})
	for i := 0; i < 5; i++ {
		if _, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{5, 21}}); err != nil {
			t.Fatal(err)
		}
	}
	var watermark uint64
	for first, next := j.Window(); first < next; first, next = j.Window() {
		info, err := srv.Checkpoint(snap)
		if err != nil {
			t.Fatal(err)
		}
		if watermark = info.LSN; watermark > 100 {
			t.Fatalf("journal never fully compacted (window %d..%d)", first, next)
		}
	}
	nodetest.WaitReclaimed(t, j)
	resp, err := http.Get(fmt.Sprintf("%s%s?lsn=2", ts.URL, api.RouteV2AuditAsOf))
	if err != nil {
		t.Fatal(err)
	}
	expectError(t, resp, http.StatusBadRequest, api.CodeInvalidRequest)
	// At the watermark the snapshot alone is the answer: nothing to replay,
	// nothing missing.
	resp, err = http.Get(fmt.Sprintf("%s%s?lsn=%d", ts.URL, api.RouteV2AuditAsOf, watermark))
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeJSON[api.AuditAsOfResponse](t, resp); resp.StatusCode != http.StatusOK || !got.SnapshotSeeded || got.FromLSN != watermark {
		t.Fatalf("as-of at the checkpoint watermark %d: status %d, %+v", watermark, resp.StatusCode, got)
	}
}

// TestWALFirstLSNAfterFullCompaction: the exported "oldest retained
// record" is wal.Window's first on every surface — /v2/stats
// wal.firstLsn (the `qoserved cluster` wal: line prints that field) and
// the /metrics family that field declares. Once compaction has emptied the retained
// window it reads lastLsn+1, "everything through lastLsn is gone", where
// it used to read 0, "nothing was ever removed".
func TestWALFirstLSNAfterFullCompaction(t *testing.T) {
	j := nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, SegmentBytes: 1})
	snap := filepath.Join(j.Dir(), "model.snap")
	srv, ts := newTestServer(t, Config{Seed: 42, WAL: j, SnapshotPath: snap})
	field, _ := reflect.TypeOf(api.WALStats{}).FieldByName("FirstLSN")
	family := field.Tag.Get("metric")
	surfaces := func() (stats *api.WALStats, metric float64) {
		t.Helper()
		resp, err := http.Get(ts.URL + api.RouteV2Stats)
		if err != nil {
			t.Fatal(err)
		}
		stats = decodeJSON[api.StatsResponse](t, resp).WAL
		resp, err = http.Get(ts.URL + api.RouteMetrics)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, family+" ") {
				_, _, metric = parseSampleLine(t, line)
			}
		}
		return stats, metric
	}
	if st, m := surfaces(); st.FirstLSN != 1 || st.LastLSN != 0 || m != 1 {
		t.Fatalf("fresh journal: firstLsn=%d lastLsn=%d metric=%v, want the empty window 1..0", st.FirstLSN, st.LastLSN, m)
	}
	for i := 0; i < 5; i++ {
		if _, err := srv.Rank(api.RankRequest{TemplateHash: api.TemplateHash(i + 1), Span: []int{5, 21}}); err != nil {
			t.Fatal(err)
		}
	}
	if st, m := surfaces(); st.FirstLSN != 1 || st.LastLSN != 5 || m != 1 {
		t.Fatalf("five records: firstLsn=%d lastLsn=%d metric=%v, want 1..5", st.FirstLSN, st.LastLSN, m)
	}
	for first, next := j.Window(); first < next; first, next = j.Window() {
		if info, err := srv.Checkpoint(snap); err != nil || info.LSN > 100 {
			t.Fatalf("journal never fully compacted (window %d..%d): %v", first, next, err)
		}
	}
	st, m := surfaces()
	if first, _ := j.Window(); st.FirstLSN != first || st.FirstLSN != st.LastLSN+1 || m != float64(first) {
		t.Fatalf("fully compacted: firstLsn=%d lastLsn=%d metric=%v, want Window's first %d = lastLsn+1 on both", st.FirstLSN, st.LastLSN, m, first)
	}
}

// TestFollowerModeContract pins the read-only replica semantics: reads
// serve (hints byte-for-byte, bandit greedily with no event), every
// write rejects with not_primary + the leader URL, and stats report
// the follower role.
func TestFollowerModeContract(t *testing.T) {
	cat := rules.NewCatalog()
	const leader = "http://primary.example:8080"
	srv, ts := newTestServer(t, Config{Seed: 9, Follower: true, LeaderURL: leader})
	srv.restoreHints(testHints(cat, 3, 2), 7)

	// Hint read path serves, with the restored generation.
	hinted := rankOne(t, ts.URL, api.RankRequest{TemplateHash: 0x1001, Span: []int{45}})
	if hinted.Source != api.SourceHint || hinted.Generation != 7 {
		t.Fatalf("follower hint rank = %+v", hinted)
	}
	// Bandit read path is deterministic greedy: no event ID, twice the
	// same answer.
	job := api.RankRequest{TemplateHash: 0x9999, Span: []int{10, 30, 90}}
	b1 := rankOne(t, ts.URL, job)
	b2 := rankOne(t, ts.URL, job)
	if b1.Source != api.SourceBandit || b1.EventID != "" {
		t.Fatalf("follower bandit rank = %+v", b1)
	}
	if b1.Chosen != b2.Chosen || b1.Prob != b2.Prob {
		t.Fatalf("follower bandit rank not deterministic: %+v vs %+v", b1, b2)
	}
	if n := srv.Bandit().LogSize(); n != 0 {
		t.Fatalf("follower logged %d events serving reads", n)
	}

	// Writes reject with the structured redirect.
	val := 1.0
	for name, do := range map[string]func() *http.Response{
		"reward": func() *http.Response {
			return postJSON(t, ts.URL+api.RouteV2Reward, api.BatchRewardRequest{Events: []api.RewardEvent{{EventID: "e", Reward: &val}}})
		},
		"hints rollover": func() *http.Response {
			resp, err := http.Post(ts.URL+api.RouteV2Hints, "text/plain", bytes.NewBufferString("qoadvisor-hints v1 day=1\n"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
		"snapshot save": func() *http.Response {
			resp, err := http.Post(ts.URL+api.RouteV2Snapshot, "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
		"wal stream": func() *http.Response {
			resp, err := http.Get(ts.URL + api.RouteV2WAL)
			if err != nil {
				t.Fatal(err)
			}
			return resp
		},
	} {
		resp := do()
		var env api.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest || env.Error.Code != api.CodeNotPrimary {
			t.Errorf("%s: status %d code %q, want 421 not_primary", name, resp.StatusCode, env.Error.Code)
		}
		if env.Error.Leader != leader {
			t.Errorf("%s: leader %q, want %q", name, env.Error.Leader, leader)
		}
	}

	// Stats carry the role.
	stats := decodeJSON[api.StatsResponse](t, getURL(t, ts.URL+api.RouteV2Stats))
	if stats.Replication == nil || stats.Replication.Role != api.RoleFollower || stats.Replication.LeaderURL != leader {
		t.Fatalf("follower stats replication = %+v", stats.Replication)
	}
}

// TestPrimaryReplicationStats checks the primary side of /v2/stats:
// role, open-stream gauge, and shipped counters.
func TestPrimaryReplicationStats(t *testing.T) {
	r := newWALRig(t, 1<<20)
	ids := nodetest.Rank(t, r.cl, 5, 1)
	nodetest.Reward(t, r.cl, ids, 0.5)
	r.srv.Ingestor().Drain()
	if err := r.j.Sync(); err != nil {
		t.Fatal(err)
	}

	// No streams yet.
	st := decodeJSON[api.StatsResponse](t, getURL(t, r.ts.URL+api.RouteV2Stats))
	if st.Replication == nil || st.Replication.Role != api.RolePrimary || st.Replication.Followers != 0 {
		t.Fatalf("primary stats = %+v", st.Replication)
	}

	// One open tail stream: the gauge sees it.
	tail, err := http.Get(fmt.Sprintf("%s%s?from=%d&wait=2000", r.ts.URL, api.RouteV2WAL, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()
	if _, _, err := openStream(t, tail.Body, 0).Next(); err != nil { // consume one record; keep open
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st = decodeJSON[api.StatsResponse](t, getURL(t, r.ts.URL+api.RouteV2Stats))
		if st.Replication.Followers == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Replication.Followers != 1 || st.Replication.StreamsServed < 1 || st.Replication.RecordsShipped == 0 {
		t.Fatalf("primary stats with open stream = %+v", st.Replication)
	}
	// The stream shipped the whole journal as stored, behind one segment
	// header: bytesShipped counts exactly those bytes.
	if want := 16 + r.j.Stats().AppendedBytes; st.Replication.BytesShipped != want {
		t.Fatalf("bytesShipped = %d, want the 16-byte header + %d journal bytes", st.Replication.BytesShipped, want-16)
	}
}

// TestFollowerHealthzDegradesWhenStale: a follower whose replication
// tail has gone silent must fail LB health checks (503 degraded)
// instead of serving arbitrarily stale hints behind a green light.
func TestFollowerHealthzDegradesWhenStale(t *testing.T) {
	tailAge := 1.0 // seconds; fresh
	_, ts := newTestServer(t, Config{Seed: 4, Follower: true, LeaderURL: "http://p:1", Tail: &TailProbe{
		Stats: func() api.ReplicationStats {
			return api.ReplicationStats{Role: api.RoleFollower, ReplicationFollower: api.ReplicationFollower{LastTailSec: tailAge}}
		},
		ApplyLatency: &obs.Histogram{},
	}})
	resp := getURL(t, ts.URL+api.RouteV2Healthz)
	h := decodeJSON[api.HealthResponse](t, resp)
	if resp.StatusCode != http.StatusOK || h.Status != api.HealthOK {
		t.Fatalf("fresh follower healthz = %d %q", resp.StatusCode, h.Status)
	}

	tailAge = 2 * followerStaleAfter.Seconds()
	resp = getURL(t, ts.URL+api.RouteV2Healthz)
	h = decodeJSON[api.HealthResponse](t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != api.HealthDegraded {
		t.Fatalf("stale follower healthz = %d %q, want 503 degraded", resp.StatusCode, h.Status)
	}
}

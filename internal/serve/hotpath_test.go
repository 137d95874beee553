package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/budget"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/wal"
	"qoadvisor/internal/walrec"
)

// reusedBody is a request body that can be rewound, so that the budget
// counts the server's allocations and not the harness's.
type reusedBody struct{ bytes.Reader }

func (*reusedBody) Close() error { return nil }

// reusedWriter is a ResponseWriter that keeps its header map.
type reusedWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *reusedWriter) Header() http.Header  { return w.header }
func (w *reusedWriter) WriteHeader(code int) { w.status = code }
func (w *reusedWriter) Write(p []byte) (int, error) {
	w.body = append(w.body[:0], p...)
	return len(p), nil
}

// inMemory returns a call that sends one in-memory request to
// srv.ServeHTTP, the next of raws in turn, with body and response writer
// reused so the harness adds nothing. It makes the first call, which
// warms the pools.
func inMemory(t *testing.T, srv *Server, route string, raws [][]byte, wantStatus int) func() {
	t.Helper()
	body := new(reusedBody)
	req := httptest.NewRequest(http.MethodPost, route, nil)
	w := &reusedWriter{header: make(http.Header)}
	next := 0
	serve := func() {
		raw := raws[next%len(raws)]
		next++
		body.Reset(raw)
		req.Body, req.ContentLength = body, int64(len(raw))
		clear(w.header)
		srv.ServeHTTP(w, req)
		if w.status != wantStatus {
			t.Fatalf("%s answered %d: %s", route, w.status, w.body)
		}
	}
	serve()
	return serve
}

// hintedServer is a server with drift detection on and 16 hints
// installed, a 16-job batch that hits every hint and its 16-event reward
// batch by template hash.
func hintedServer(t *testing.T) (*Server, []api.RankRequest, []api.RewardEvent) {
	t.Helper()
	dc := drift.DefaultConfig()
	srv := New(Config{Seed: 1, Drift: &dc})
	t.Cleanup(srv.Close)
	hints := testHints(rules.NewCatalog(), 16, 1)
	if _, err := srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}
	jobs := make([]api.RankRequest, len(hints))
	events := make([]api.RewardEvent, len(hints))
	reward := 0.75
	for i, h := range hints {
		th := api.TemplateHash(h.TemplateHash)
		jobs[i] = api.RankRequest{TemplateHash: th, Span: []int{40, 41 + i, 90}, RowCount: 1e6, BytesRead: 2.5e9}
		events[i] = api.RewardEvent{Reward: &reward, TemplateHash: &th}
	}
	return srv, jobs, events
}

// banditServer is a server journaling to an async WAL and 16 unhinted
// 8-bit-span jobs.
func banditServer(t *testing.T) (*Server, []api.RankRequest) {
	t.Helper()
	j, err := wal.Open(wal.Options{Dir: t.TempDir(), Mode: wal.ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	srv := New(Config{Seed: 1, WAL: j})
	t.Cleanup(srv.Close)
	jobs := make([]api.RankRequest, 16)
	for i := range jobs {
		jobs[i] = api.RankRequest{
			TemplateHash: api.TemplateHash(0xb000 + i),
			Span:         []int{3, 17 + i, 40, 64, 99, 128 + i, 200, 255},
			RowCount:     1e6, BytesRead: 2.5e9,
		}
	}
	return srv, jobs
}

// TestRankPathAllocBudget is the tier-1 gate on what a steering decision
// costs the server besides net/http: Server.ServeHTTP on in-memory
// requests, drift detection on, every template hinted.
func TestRankPathAllocBudget(t *testing.T) {
	srv, jobs, events := hintedServer(t)
	rank, _ := api.BatchRankRequest{Jobs: jobs}.AppendJSON(nil)
	reward, _ := api.BatchRewardRequest{Events: events}.AppendJSON(nil)
	budget.Allocs(t, "serve.rank.hinted", 200, inMemory(t, srv, api.RouteV2Rank, [][]byte{rank}, http.StatusOK))
	budget.Allocs(t, "serve.reward.template", 200, inMemory(t, srv, api.RouteV2Reward, [][]byte{reward}, http.StatusAccepted))
}

// TestBanditPathAllocBudget gates the other side of the hint cache: 16
// unhinted 8-bit-span jobs, each featurized into pooled scratch, ranked
// by the bandit, logged and journaled to an async WAL. The log copies
// what a decision keeps — its context IDs, its action slice, the Event
// and its ID — into blocks it owns, so a decision allocates nothing of
// its own but a share of a block now and then; the ceiling is the
// request's own allocations, that share and the event index growing.
// Then the reward side: 16 event IDs decoded into one arena string, the
// batch sorted into pooled lists, journaled and queued (the drain
// goroutine's applying and training is counted too).
func TestBanditPathAllocBudget(t *testing.T) {
	srv, jobs := banditServer(t)
	rankBody, _ := api.BatchRankRequest{Jobs: jobs}.AppendJSON(nil)
	budget.Allocs(t, "serve.rank.bandit", 200, inMemory(t, srv, api.RouteV2Rank, [][]byte{rankBody}, http.StatusOK))

	// The matching reward requests: each names the 16 decisions of one
	// more such rank request by event ID, with its template hash, as a
	// bandit-served job's reward does. Each event is rewarded once, so
	// every one is accepted, journaled and queued.
	rewards := make([][]byte, 201)
	w := &reusedWriter{header: make(http.Header)}
	reward := 0.5
	for k := range rewards {
		req := httptest.NewRequest(http.MethodPost, api.RouteV2Rank, bytes.NewReader(rankBody))
		srv.ServeHTTP(w, req)
		var ranked api.BatchRankResponse
		if err := json.Unmarshal(w.body, &ranked); err != nil || len(ranked.Results) != len(jobs) {
			t.Fatalf("rank: %v: %s", err, w.body)
		}
		events := make([]api.RewardEvent, len(jobs))
		for i := range events {
			events[i] = api.RewardEvent{EventID: ranked.Results[i].EventID, Reward: &reward, TemplateHash: &jobs[i].TemplateHash}
		}
		rewards[k], _ = api.BatchRewardRequest{Events: events}.AppendJSON(nil)
	}
	budget.Allocs(t, "serve.reward.event_id", 200, inMemory(t, srv, api.RouteV2Reward, rewards, http.StatusAccepted))
	if errs := srv.Bandit().JournalErrors(); errs != 0 {
		t.Errorf("%d journal appends failed", errs)
	}
}

// TestRealServerAllocBudget counts what the in-memory gates leave out:
// serve.New behind an httptest.Server, driven by the typed client, one
// 16-job rank and the 16-event reward of its decisions per op, on the
// hint path and on the bandit path. Less the client's canned-handler
// rows and the path's in-memory rows, what remains is the real server's
// net/http share (the budget table's composition).
func TestRealServerAllocBudget(t *testing.T) {
	srv, jobs, events := hintedServer(t)
	budget.Allocs(t, "serve.real_server.hinted", 200, realServerOp(t, srv, jobs, events))
	srv, jobs = banditServer(t)
	events = make([]api.RewardEvent, len(jobs))
	reward := 0.5
	for i := range events {
		events[i] = api.RewardEvent{Reward: &reward, TemplateHash: &jobs[i].TemplateHash}
	}
	budget.Allocs(t, "serve.real_server.bandit", 200, realServerOp(t, srv, jobs, events))
	if errs := srv.Bandit().JournalErrors(); errs != 0 {
		t.Errorf("%d journal appends failed", errs)
	}
}

// realServerOp serves srv over loopback and returns one op through a
// client.Client: RankBatch(jobs), then RewardBatch(events) with each
// event naming its job's decision. It makes the first op, which opens
// the connection and warms the pools.
func realServerOp(t *testing.T, srv *Server, jobs []api.RankRequest, events []api.RewardEvent) func() {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()
	op := func() {
		ranked, err := c.RankBatch(ctx, jobs)
		if err != nil || len(ranked.Results) != len(jobs) {
			t.Fatalf("RankBatch = %+v, %v", ranked, err)
		}
		for i := range events {
			events[i].EventID = ranked.Results[i].EventID
		}
		if acked, err := c.RewardBatch(ctx, events); err != nil || acked.Observed != len(events) {
			t.Fatalf("RewardBatch = %+v, %v", acked, err)
		}
	}
	op()
	return op
}

// TestBatchPoolsDoNotAlias drives one server from twelve goroutines with
// batches that differ in every way the pooled state could leak — size,
// a body over the 1 MiB pool cap, a malformed body, templates with
// different hints, unhinted templates whose spans differ in length — and
// checks each response against its own request. Every bandit decision's
// journaled context and chosen action, and every open or pending
// decision's logged context and action set, must be the featurization
// of the job that got its event ID: the rank path featurizes into pooled
// scratch, which neither may keep. Trained decisions leave the log.
func TestBatchPoolsDoNotAlias(t *testing.T) {
	cat := rules.NewCatalog()
	dc := drift.DefaultConfig()
	srv, ts := newTestServer(t, Config{Seed: 1, Drift: &dc})
	journal := &recordingJournal{}
	srv.Bandit().AttachJournal(journal)
	hints := testHints(cat, 4096, 1)
	if _, err := srv.InstallHints(hints); err != nil {
		t.Fatal(err)
	}

	post := func(route, rid string, body []byte) (int, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+route, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set(api.RequestIDHeader, rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		return resp.StatusCode, got, err
	}

	var (
		wg sync.WaitGroup
		// ranked maps each event ID a response returned to its job and
		// the index of the action it chose.
		rankedMu sync.Mutex
		ranked   = map[string]rankedJob{}
	)
	for g := 8; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g ranks unhinted templates 0xb000_0000+g<<16+… in
			// batches of its own size, spans of 1 to 12 bits, and rewards
			// every decision by event ID.
			size := []int{2, 9, 40, 64}[g-8]
			for round := 0; round < 12; round++ {
				jobs := make([]api.RankRequest, size)
				for i := range jobs {
					span := make([]int, 1+(round+i+g)%12)
					for k := range span {
						span[k] = (g*31 + i*7 + k*19 + round) % rules.NumRules
					}
					jobs[i] = api.RankRequest{
						TemplateHash: api.TemplateHash(0xb000_0000 + g<<16 + round<<8 + i),
						Span:         span,
						RowCount:     float64(int(1) << (i % 40)),
						BytesRead:    float64(round+1) * 1e6,
					}
				}
				rid := fmt.Sprintf("g%d-r%d", g, round)
				body, _ := json.Marshal(api.BatchRankRequest{Jobs: jobs})
				status, got, err := post(api.RouteV2Rank, rid, body)
				var resp api.BatchRankResponse
				if err != nil || status != 200 || json.Unmarshal(got, &resp) != nil || len(resp.Results) != size {
					t.Errorf("%s: rank answered %d %.200s (%v)", rid, status, got, err)
					return
				}
				reward := float64(g) / 16
				events := make([]api.RewardEvent, size)
				rankedMu.Lock()
				for i, res := range resp.Results {
					if res.Error != nil || res.Source != api.SourceBandit || res.EventID == "" {
						t.Errorf("%s job %d: got %+v, want a bandit decision", rid, i, res)
					}
					ranked[res.EventID] = rankedJob{jobs[i], res.Chosen}
					events[i] = api.RewardEvent{EventID: res.EventID, Reward: &reward}
				}
				rankedMu.Unlock()
				body, _ = json.Marshal(api.BatchRewardRequest{Events: events})
				status, got, err = post(api.RouteV2Reward, rid, body)
				var acked api.BatchRewardResponse
				if err != nil || status != 202 || json.Unmarshal(got, &acked) != nil ||
					acked.RequestID != rid || acked.Queued != size || len(acked.Rejected) != 0 {
					t.Errorf("%s: reward of %d events answered %d %.200s (%v)", rid, size, status, got, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutine g owns hints [g*512, (g+1)*512) and a batch size of
			// its own; g == 6 pads its jobs past the pool cap, g == 7 sends
			// garbage every other round.
			size := []int{1, 3, 16, 33, 100, 300, 24, 7}[g]
			pad := ""
			if g == 6 {
				pad = strings.Repeat("p", (1<<20)/size+1)
			}
			for round := 0; round < 12; round++ {
				mine := hints[g*512+(round*size)%(512-size):][:size]
				jobs := make([]api.RankRequest, size)
				events := make([]api.RewardEvent, size)
				reward := float64(g)
				for i, h := range mine {
					th := api.TemplateHash(h.TemplateHash)
					jobs[i] = api.RankRequest{TemplateHash: th, TemplateID: pad, Span: []int{40 + g, 41 + i%100}}
					events[i] = api.RewardEvent{Reward: &reward, TemplateHash: &th}
				}
				rid := fmt.Sprintf("g%d-r%d", g, round)
				body, _ := json.Marshal(api.BatchRankRequest{Jobs: jobs})
				if g == 7 && round%2 == 1 {
					status, got, err := post(api.RouteV2Rank, rid, body[:len(body)/2])
					var env api.ErrorResponse
					if err != nil || status != 400 || json.Unmarshal(got, &env) != nil ||
						env.Error.Code != api.CodeInvalidJSON || env.RequestID != rid {
						t.Errorf("%s: half a body answered %d %s (%v)", rid, status, got, err)
					}
					continue
				}
				status, got, err := post(api.RouteV2Rank, rid, body)
				var ranked api.BatchRankResponse
				if err != nil || status != 200 || json.Unmarshal(got, &ranked) != nil {
					t.Errorf("%s: rank answered %d %.200s (%v)", rid, status, got, err)
					return
				}
				if ranked.RequestID != rid || len(ranked.Results) != size {
					t.Errorf("%s: got requestId %q with %d results for %d jobs", rid, ranked.RequestID, len(ranked.Results), size)
					return
				}
				for i, res := range ranked.Results {
					if res.Error != nil || res.Source != api.SourceHint || res.Flip != mine[i].Flip.String() {
						t.Errorf("%s job %d (template %x): got %+v, want hint %s", rid, i, mine[i].TemplateHash, res, mine[i].Flip)
						return
					}
				}
				body, _ = json.Marshal(api.BatchRewardRequest{Events: events})
				status, got, err = post(api.RouteV2Reward, rid, body)
				var acked api.BatchRewardResponse
				if err != nil || status != 202 || json.Unmarshal(got, &acked) != nil ||
					acked.RequestID != rid || acked.Observed != size || acked.Queued != 0 || len(acked.Rejected) != 0 {
					t.Errorf("%s: reward of %d events answered %d %.200s (%v)", rid, size, status, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if len(ranked) != 12*(2+9+40+64) {
		t.Fatalf("%d bandit decisions returned distinct event IDs, want %d", len(ranked), 12*(2+9+40+64))
	}
	features := func(job api.RankRequest) (bandit.Context, []bandit.Action) {
		var span rules.Bitset
		for _, b := range job.Span {
			span.Set(b)
		}
		return featurize.Context(span, job.RowCount, job.BytesRead), featurize.Actions(cat, span)
	}
	// Rewards train asynchronously: the log holds the open and pending
	// decisions, each with its job's exact features, and no trained one.
	for _, ev := range srv.Bandit().Events() {
		r, ok := ranked[ev.EventID]
		switch {
		case !ok:
			t.Errorf("logged event %s was not returned by any response", ev.EventID)
			continue
		case ev.Trained:
			t.Errorf("event %s (template %v) is trained but still in the log", ev.EventID, r.job.TemplateHash)
			continue
		}
		ctx, actions := features(r.job)
		if !slices.Equal(ev.Context.IDs, ctx.IDs) {
			t.Errorf("event %s (template %v): logged context %x, want the job's %x", ev.EventID, r.job.TemplateHash, ev.Context.IDs, ctx.IDs)
		}
		if !reflect.DeepEqual(ev.Actions, actions) {
			t.Errorf("event %s (template %v): logged actions %v, want the job's %v", ev.EventID, r.job.TemplateHash, ev.Actions, actions)
		}
	}
	// Every decision was journaled as its job made it.
	recs := journal.records()
	if len(recs) != len(ranked) {
		t.Errorf("%d rank records journaled for %d decisions", len(recs), len(ranked))
	}
	for _, rec := range recs {
		f, err := walrec.ScanRank(rec)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := ranked[string(f.EventID)]
		if !ok {
			t.Errorf("journaled event %s was not returned by any response", f.EventID)
			continue
		}
		ctx, actions := features(r.job)
		if got := f.CtxIDs.AppendTo(nil); !slices.Equal(got, ctx.IDs) {
			t.Errorf("event %s (template %v): journaled context %x, want the job's %x", f.EventID, r.job.TemplateHash, got, ctx.IDs)
		}
		if got, want := f.ActIDs.AppendTo(nil), actions[r.chosen].IDs; !slices.Equal(got, want) {
			t.Errorf("event %s (template %v): journaled action %x, want the job's choice %d, %x", f.EventID, r.job.TemplateHash, got, r.chosen, want)
		}
	}
	// Once every reward is applied and trained, no decision is left in
	// the log; its slots stay until eviction passes them.
	srv.ingest.Drain()
	if evs := srv.Bandit().Events(); len(evs) != 0 {
		t.Errorf("%d events still logged after every decision was rewarded and trained", len(evs))
	}
	if n := srv.Bandit().LogSize(); n != len(ranked) {
		t.Errorf("LogSize = %d after training, want the %d decisions' slots", n, len(ranked))
	}
}

// rankedJob is a bandit decision as a /v2/rank response returned it.
type rankedJob struct {
	job    api.RankRequest
	chosen int
}

// recordingJournal is a bandit.Journal that keeps a copy of every record
// appended to it.
type recordingJournal struct {
	mu   sync.Mutex
	recs [][]byte
}

func (j *recordingJournal) Append(p []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recs = append(j.recs, bytes.Clone(p))
	return uint64(len(j.recs)), nil
}

func (j *recordingJournal) LastLSN() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return uint64(len(j.recs))
}

func (j *recordingJournal) records() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recs
}

// TestAPIConformanceHostileRequestID sends correlation IDs no HTTP
// client would let through — the handler is called directly — and
// requires the hand-encoded bodies to stay valid JSON that says what
// encoding/json would have said.
func TestAPIConformanceHostileRequestID(t *testing.T) {
	srv, _ := newTestServer(t, Config{Seed: 3})
	for _, rid := range []string{
		`"quoted" \back\`, "line\nbreak\r\n\x00\x1f", "<script>alert(1)</script>&amp;", "\xff\xfe invalid \xc3\x28 utf-8",
		"\u2028 and \u2029", strings.Repeat("long\"<\n\xff", 4096/8),
	} {
		// What encoding/json makes of the ID, there and back.
		quoted, _ := json.Marshal(rid)
		var roundTrip string
		if err := json.Unmarshal(quoted, &roundTrip); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ route, body string }{
			{api.RouteV2Rank, `{"jobs":[{"templateHash":"1","span":[5]},{"templateHash":"2","span":[]}]}`},
			{api.RouteV2Reward, `{"events":[{"eventId":"<never ranked>","reward":1}]}`},
		} {
			req := httptest.NewRequest(http.MethodPost, c.route, strings.NewReader(c.body))
			req.Header[api.RequestIDHeader] = []string{rid}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			got := rec.Body.Bytes()
			if rec.Code >= 300 || rec.Header().Get(api.RequestIDHeader) != rid {
				t.Fatalf("%s with request id %q: status %d, echoed %q", c.route, rid, rec.Code, rec.Header().Get(api.RequestIDHeader))
			}
			if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(got)) {
				t.Errorf("%s: Content-Length %q for a %d-byte body", c.route, cl, len(got))
			}
			// The reference: the same document through reflection, its
			// nested values as the raw bytes that arrived (json.Marshal
			// re-escapes and compacts those, so they too must be canonical).
			var doc struct {
				RequestID  string            `json:"requestId"`
				Generation uint64            `json:"generation"`
				Queued     *int              `json:"queued,omitempty"`
				Results    []json.RawMessage `json:"results,omitempty"`
				Rejected   []json.RawMessage `json:"rejected,omitempty"`
			}
			if err := json.Unmarshal(got, &doc); err != nil {
				t.Fatalf("%s with request id %q: body is not JSON: %v\n%s", c.route, rid, err, got)
			}
			if doc.RequestID != roundTrip {
				t.Errorf("%s: requestId %q came back %q, want %q", c.route, rid, doc.RequestID, roundTrip)
			}
			// Re-encode with the ID as it was sent: invalid bytes are
			// escaped on the way out, not carried as U+FFFD.
			doc.RequestID = rid
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(doc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s with request id %q:\nbody      %s\nreference %s", c.route, rid, got, want.Bytes())
			}
		}
	}
}

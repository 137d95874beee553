package replicate

import (
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/wal"
)

// streamProxy stands between a follower and a real primary: every route
// passes through, except that /v2/wal bodies are fetched whole from the
// primary and a 200's is handed to rewrite before the follower sees it.
// Tail requests wait for release, so a test can change the primary
// while the follower is cut off from it.
type streamProxy struct {
	ts    *httptest.Server
	open  chan struct{} // closed by release
	mu    sync.Mutex
	froms []uint64 // the from= of every tail request, in order
	// status is the primary's last status code for a from=.
	status map[uint64]int
	// hideFrontier withholds the primary's durable-frontier header from
	// the follower.
	hideFrontier atomic.Bool
}

// rewrite receives the n-th tail stream (from 0), the from= it asked
// for and the primary's body, and returns the content type and body the
// follower gets.
type rewrite func(n int, from uint64, body []byte) (contentType string, out []byte)

func newStreamProxy(t *testing.T, p *primaryRig, rw rewrite) *streamProxy {
	t.Helper()
	target, err := url.Parse(p.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	px := &streamProxy{open: make(chan struct{}), status: map[uint64]int{}}
	pass := httputil.NewSingleHostReverseProxy(target)
	px.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.RouteV2WAL {
			pass.ServeHTTP(w, r)
			return
		}
		select {
		case <-px.open:
		case <-r.Context().Done():
			return
		}
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		px.mu.Lock()
		n := len(px.froms)
		px.froms = append(px.froms, from)
		px.mu.Unlock()
		up, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.ts.URL+r.URL.RequestURI(), nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp, err := http.DefaultClient.Do(up)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		px.mu.Lock()
		px.status[from] = resp.StatusCode
		px.mu.Unlock()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		ct := resp.Header.Get("Content-Type")
		if resp.StatusCode == http.StatusOK {
			ct, body = rw(n, from, body)
		}
		w.Header().Set("Content-Type", ct)
		if !px.hideFrontier.Load() {
			w.Header().Set(api.WALFrontierHeader, resp.Header.Get(api.WALFrontierHeader))
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(func() {
		px.release()
		px.ts.Close()
	})
	return px
}

// release lets tail requests through (idempotent).
func (px *streamProxy) release() {
	px.mu.Lock()
	defer px.mu.Unlock()
	select {
	case <-px.open:
	default:
		close(px.open)
	}
}

func (px *streamProxy) requests() []uint64 {
	px.mu.Lock()
	defer px.mu.Unlock()
	return append([]uint64(nil), px.froms...)
}

// answered returns the primary's last status code for a tail request
// from from, 0 if none reached it.
func (px *streamProxy) answered(from uint64) int {
	px.mu.Lock()
	defer px.mu.Unlock()
	return px.status[from]
}

// waitFor polls cond for up to 15 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pendingPrimary is a primary with records journaled past the point a
// follower bootstraps at: the follower starts, then more traffic lands.
func pendingPrimary(t *testing.T, rw rewrite) (*primaryRig, *streamProxy, *Follower) {
	t.Helper()
	p := newPrimary(t, 1<<20)
	p.traffic(t, 10, 1, 0.5)
	p.settle(t)
	px := newStreamProxy(t, p, rw)
	f := startFollowerVia(t, p, px.ts.URL)
	p.traffic(t, 10, 2, 0.5)
	p.settle(t)
	if p.j.LastLSN() < f.applied.Load()+2 {
		t.Fatalf("journal ends at %d, follower bootstrapped at %d: nothing to ship", p.j.LastLSN(), f.applied.Load())
	}
	return p, px, f
}

// TestFollowerRefusesOtherStreamFormat: a body of any content type but
// the segment stream's — here the primary's own records, labelled with
// the retired per-frame-LSN format's type — is refused whole. Nothing is
// applied and the follower counts a reconnect.
func TestFollowerRefusesOtherStreamFormat(t *testing.T) {
	_, px, f := pendingPrimary(t, func(_ int, _ uint64, body []byte) (string, []byte) {
		return "application/x-qoadvisor-wal", body
	})
	bootstrapped := f.applied.Load()
	px.release()
	waitFor(t, "two refused tails", func() bool { return f.Stats().Reconnects >= 2 })
	if st := f.Stats(); st.RecordsApplied != 0 || st.AppliedLSN != bootstrapped || st.Resyncs != 0 {
		t.Fatalf("after refused streams: %+v, want nothing applied past %d", st, bootstrapped)
	}
	for i, from := range px.requests() {
		if from != bootstrapped {
			t.Fatalf("tail %d asked from %d, want the bootstrap watermark %d", i, from, bootstrapped)
		}
	}
}

// TestFollowerResyncsOnMisplacedStream: a stream whose segment header
// names any LSN but from+1 does not continue the follower's history, so
// the follower re-bootstraps instead of applying it — and then converges
// over honest streams. The header here claims from, a record the
// follower already holds: applied, the stream would replay the last
// record twice.
func TestFollowerResyncsOnMisplacedStream(t *testing.T) {
	p, px, f := pendingPrimary(t, func(n int, from uint64, body []byte) (string, []byte) {
		if n == 0 {
			binary.LittleEndian.PutUint64(body[8:16], from)
		}
		return api.WALStreamContentType, body
	})
	px.release()
	waitFor(t, "a re-bootstrap", func() bool { return f.Stats().Resyncs >= 1 })
	caughtUp(t, f)
	if got, want := modelBytes(t, f.Server().Bandit().Save), modelBytes(t, p.srv.Bandit().Save); !bytes.Equal(got, want) {
		t.Fatal("model diverged after the misplaced stream")
	}
}

// TestFollowerResumesAfterCutFrame: a body cut inside a frame delivers
// every whole record before the cut and nothing of the cut one; the next
// tail asks from the last record applied, and the replica converges.
func TestFollowerResumesAfterCutFrame(t *testing.T) {
	var whole atomic.Uint64 // whole records in the cut body
	p, px, f := pendingPrimary(t, func(n int, from uint64, body []byte) (string, []byte) {
		if n > 0 {
			return api.WALStreamContentType, body
		}
		sr, err := wal.NewSegmentReader(bytes.NewReader(body), "stream")
		if err != nil {
			return api.WALStreamContentType, body
		}
		var records uint64
		for _, _, err := sr.Next(); err == nil; _, _, err = sr.Next() {
			records++
		}
		if records < 2 {
			return api.WALStreamContentType, body
		}
		whole.Store(records - 1)
		return api.WALStreamContentType, body[:len(body)-1] // inside the last record's payload
	})
	bootstrapped := f.applied.Load()
	px.release()
	waitFor(t, "a second tail", func() bool { return len(px.requests()) >= 2 })
	n := whole.Load()
	if n == 0 {
		t.Fatal("the first stream held fewer than two records; nothing was cut")
	}
	if froms := px.requests(); froms[0] != bootstrapped || froms[1] != bootstrapped+n {
		t.Fatalf("tails asked from %v; want %d, then %d after %d whole records", froms[:2], bootstrapped, bootstrapped+n, n)
	}
	if st := f.Stats(); st.Reconnects < 1 || st.Resyncs != 0 {
		t.Fatalf("after a cut stream: %+v, want a reconnect and no re-bootstrap", st)
	}
	caughtUp(t, f)
	if got, want := modelBytes(t, f.Server().Bandit().Save), modelBytes(t, p.srv.Bandit().Save); !bytes.Equal(got, want) {
		t.Fatal("model diverged after the cut stream")
	}
}

package serve

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/wal"
)

// WAL replication stream: GET /v2/wal?from=<lsn> answers with a journal
// segment — a segment header naming LSN from+1, then every journal
// record with LSN > from as the frame the journal stored, copied
// without checksumming again — and long-polls the tail: the primary
// half of log-shipping replication. The stream only ever ships records
// at or below the durable frontier (wal.SyncedLSN), so a follower can
// never apply state the primary would lose in a crash; in async mode
// the group-commit window bounds shipping latency at a few
// milliseconds.
const (
	// walStreamMaxDuration bounds one response so it finishes inside
	// common proxy/server write timeouts (qoserved serves with a 30s
	// WriteTimeout); followers resume with from=<applied> on reconnect.
	walStreamMaxDuration = 20 * time.Second
	// walStreamPollWait is the default long-poll window at the tail: an
	// idle primary holds the request open this long waiting for fresh
	// records before closing the stream empty-handed. The follower can
	// shorten it with ?wait=<ms> (capped at walStreamPollMax).
	walStreamPollWait = 10 * time.Second
	walStreamPollMax  = 30 * time.Second
)

func (h *httpLayer) handleWALStream(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) || !h.requirePrimary(w, r) {
		return
	}
	s := h.srv
	if s.wal == nil {
		writeError(w, rid, errWALDisabled())
		return
	}
	from := uint64(0)
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "bad from LSN %q", q))
			return
		}
		from = v
	}
	pollWait := walStreamPollWait
	if q := r.URL.Query().Get("wait"); q != "" {
		ms, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			writeError(w, rid, api.Errorf(api.CodeInvalidRequest, "bad wait duration %q (want milliseconds)", q))
			return
		}
		pollWait = min(time.Duration(ms)*time.Millisecond, walStreamPollMax)
	}
	first, next := s.wal.Window()
	if from+1 < first {
		// Compaction removed the records the follower needs; tailing
		// cannot catch it up. The follower must take a fresh bootstrap
		// snapshot (which re-journals the hint table above its watermark).
		writeError(w, rid, api.Errorf(api.CodeWALGap,
			"records through %d were compacted (oldest retained is %d); re-bootstrap from %s",
			first-1, first, api.RouteV2WALSnapshot))
		return
	}
	if from >= next {
		// The follower claims records this journal never wrote: its
		// history is another journal's (this one was reset), and a tail
		// from here would long-poll for LSNs that belong to neither.
		writeError(w, rid, api.Errorf(api.CodeWALGap,
			"journal ends at LSN %d; from %d is past its end; re-bootstrap from %s",
			next-1, from, api.RouteV2WALSnapshot))
		return
	}

	w.Header().Set("Content-Type", api.WALStreamContentType)
	w.Header().Set(api.WALFrontierHeader, strconv.FormatUint(s.wal.SyncedLSN(), 10))
	w.Header().Set(api.WALFirstHeader, strconv.FormatUint(first, 10))
	w.WriteHeader(http.StatusOK)
	hdr := wal.SegmentHeader(from + 1)
	if _, err := w.Write(hdr[:]); err != nil {
		return
	}
	s.walBytesShipped.Add(int64(len(hdr)))
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the headers out now: the first batch may be a long-poll
		// wait away, and the follower's HTTP client is blocked on them.
		flusher.Flush()
	}

	s.walStreams.Add(1)
	s.walStreamsTotal.Add(1)
	defer s.walStreams.Add(-1)

	// A stateful cursor keeps the segment it reads open at the last
	// shipped record, so each long-poll wake reads on from there with no
	// file to open and no buffer to allocate — a naive per-wake Replay
	// would re-scan (and re-CRC) the whole active segment every
	// group-commit window, per follower.
	cur := s.wal.NewCursor(from)
	defer cur.Close()
	deadline := time.Now().Add(walStreamMaxDuration)
	for {
		wait := time.Until(deadline)
		if wait <= 0 {
			return
		}
		if wait > pollWait {
			wait = pollWait
		}
		synced := s.wal.WaitLSN(r.Context(), from+1, wait)
		if synced <= from {
			// Idle long-poll window expired, the client went away or the
			// WAL closed, with nothing new; end the response (a live
			// client reconnects).
			return
		}
		_, err := cur.Next(synced, func(lsn uint64, frame []byte) error {
			if _, werr := w.Write(frame); werr != nil {
				return werr
			}
			from = lsn
			s.walRecsShipped.Add(1)
			s.walBytesShipped.Add(int64(len(frame)))
			return nil
		})
		if err != nil {
			// Client gone, journal error, or compaction passed the cursor
			// (the follower will get wal_gap on reconnect); all end here.
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

// handleWALSnapshot streams a checkpoint-consistent bootstrap snapshot
// (the follower's join path, and a journaled primary's
// GET /v2/model/snapshot). The response body is the bandit model's
// persisted form; its embedded wal= watermark is where the follower
// starts tailing, and the hint table is re-journaled above that
// watermark so the first tail batch delivers it.
func (h *httpLayer) handleWALSnapshot(w http.ResponseWriter, r *http.Request) {
	rid := requestID(w)
	if !requireMethod(w, r, http.MethodGet) || !h.requirePrimary(w, r) {
		return
	}
	// The barrier buffers the whole snapshot before anything touches the
	// ResponseWriter, so a barrier failure (WAL disabled, latched disk
	// error, checkpoint fault) still gets a proper error envelope — a
	// bare 200 with an empty body would send the follower into a silent
	// re-bootstrap loop while hiding the primary's fault.
	buf, _, err := h.srv.bootstrapSnapshot()
	if err != nil {
		var e *api.Error
		if !errors.As(err, &e) {
			e = api.Errorf(api.CodeInternal, "bootstrap snapshot: %v", err)
		}
		writeError(w, rid, e)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	// Body write failures past this point mean the follower is gone; a
	// truncated body fails bandit.Load loudly there, which retries.
	w.Write(buf.Bytes())
}

// errWALDisabled is the one construction of the wal_disabled envelope:
// every replication route on a WAL-less server must report the same
// wire contract.
func errWALDisabled() *api.Error {
	return api.Errorf(api.CodeWALDisabled, "this server runs without a WAL; nothing to replicate")
}

// Package replicate implements the follower half of QO-Advisor's
// WAL-shipped replication: a read-scaled serving node that bootstraps
// from the primary's checkpoint-consistent snapshot and then tails the
// primary's write-ahead log over HTTP to keep a live, read-only
// replica of the learner and the hint table.
//
// Protocol (all primary-side pieces live in internal/serve):
//
//  1. Bootstrap — GET /v2/wal/snapshot returns the model at an exact
//     WAL watermark; the primary re-journals its hint table just above
//     that watermark, so the first tail batch delivers the hints.
//  2. Tail — GET /v2/wal?from=<applied> answers with a journal
//     segment: a header naming LSN applied+1, then the journal's own
//     frames of the records (rank decisions, reward batches, train
//     marks, hint rollovers). The follower reads it with
//     wal.NewSegmentReader and applies the records in journal order
//     through the same serve.Applier crash recovery uses. Apply order
//     equals the primary's single-worker ingestion order, so the
//     replica's model converges to byte-identical weights and event log.
//  3. Resume — a torn connection (or an idle long-poll expiry) is
//     just a reconnect with from=<last applied LSN>: the header fixes
//     the first record's LSN, LSNs are dense and every frame carries a
//     CRC, so nothing is lost or applied twice. A body of another
//     content type is refused before anything is applied.
//  4. Re-sync — if the primary compacted past the follower's position
//     (wal_gap), the stream's header names an LSN other than applied+1,
//     or the primary's durable frontier regressed below the follower's
//     applied LSN (a journal reset — the advertised history is no
//     longer ours), the follower takes a fresh bootstrap snapshot and
//     swaps in a new serving core atomically; readers never see a
//     half-applied table.
//
// The follower serves the full read surface (/v2/rank, /v2/hints
// lookups via rank, /v2/healthz, /v2/stats) from its local replica;
// every write is rejected by the underlying serve.Server with a
// structured not_primary error carrying the primary's URL.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
)

// Config parameterizes a follower. It has nothing to match against the
// primary: the training cadence and the event-log cap are constants of
// the bandit package, so the replica trains and evicts on the
// primary's boundaries by construction.
type Config struct {
	// Primary is the primary's base URL ("http://host:port").
	Primary string
	// Seed drives nothing observable on a follower (greedy ranking is
	// deterministic) but is threaded into bandit.Load for consistency.
	Seed int64
	// Logger receives replication lifecycle events (bootstraps,
	// re-syncs, reconnect backoff). Nil is valid and silent.
	Logger *slog.Logger

	// pollWait is the tail long-poll window asked of the primary
	// (0 = defaultPollWait); reconnectBackoff the wait after a failed
	// connect (0 = defaultReconnectBackoff), doubled per consecutive
	// failure up to 16x. Only this package's tests shorten them.
	pollWait         time.Duration
	reconnectBackoff time.Duration
}

const (
	// defaultPollWait is the tail long-poll window: an idle stream
	// ends and reconnects this often.
	defaultPollWait = 10 * time.Second
	// defaultReconnectBackoff is the first wait after a failed connect.
	defaultReconnectBackoff = 500 * time.Millisecond
)

// state is one bootstrap generation: the serving core built from one
// snapshot. Re-syncs build a fresh state and swap it in whole.
type state struct {
	srv     *serve.Server
	svc     *bandit.Service
	applier *serve.Applier
}

// Follower is a live read replica. It implements http.Handler by
// delegating to the current serving core, so it can sit directly
// behind a listener even across re-syncs.
type Follower struct {
	cfg Config
	cl  *client.Client
	hc  *http.Client

	cur atomic.Pointer[state]

	applied  atomic.Uint64 // newest journal record applied locally
	frontier atomic.Uint64 // newest durable primary LSN observed
	lastTail atomic.Int64  // unix-nano of the last applied record / stream activity

	recordsApplied atomic.Int64
	reconnects     atomic.Int64
	resyncs        atomic.Int64

	log *slog.Logger
	// applyHist is the replication_apply stage histogram. The follower
	// owns it (not the serving core) so the distribution survives the
	// core swaps re-syncs perform; each bootstrap hands it to the fresh
	// core.
	applyHist *obs.Histogram
	// flight is the trace sink; like applyHist it outlives the core
	// swaps, so retained traces survive re-syncs.
	flight *obs.FlightRecorder

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// Start bootstraps a follower from the primary and begins tailing its
// WAL. The initial bootstrap is synchronous — an unreachable primary
// fails here, not silently in the background — and the tail loop then
// maintains the replica (reconnect on torn streams, re-bootstrap on
// wal_gap) until Close.
func Start(cfg Config) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replicate: Config.Primary is required")
	}
	if cfg.pollWait <= 0 {
		cfg.pollWait = defaultPollWait
	}
	if cfg.reconnectBackoff <= 0 {
		cfg.reconnectBackoff = defaultReconnectBackoff
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{
		cfg: cfg,
		cl:  client.New(cfg.Primary, client.WithTimeout(60*time.Second)),
		// No overall timeout: the body is a long-poll stream, bounded by
		// the primary's stream duration. Connects still time out so a
		// dead primary is noticed.
		hc:        &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 30 * time.Second}},
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		log:       cfg.Logger,
		applyHist: &obs.Histogram{},
		flight:    serve.NewFlightRecorder(),
	}
	if err := f.bootstrap(); err != nil {
		cancel()
		return nil, err
	}
	f.log.Info("follower started", "primary", cfg.Primary, "appliedLsn", f.applied.Load())
	go f.run()
	return f, nil
}

// bootstrap fetches a checkpoint-consistent snapshot from the primary
// and swaps in a fresh serving core positioned at its watermark.
func (f *Follower) bootstrap() error {
	body, err := f.cl.BootstrapSnapshot(f.ctx)
	if err != nil {
		return fmt.Errorf("replicate: bootstrap from %s: %w", f.cfg.Primary, err)
	}
	svc, err := bandit.Load(body, f.cfg.Seed)
	body.Close()
	if err != nil {
		return fmt.Errorf("replicate: decoding bootstrap snapshot: %w", err)
	}
	srv := serve.New(serve.Config{
		Bandit:    svc,
		Seed:      f.cfg.Seed,
		Follower:  true,
		LeaderURL: f.cfg.Primary,
		Tail:      &serve.TailProbe{Stats: f.Stats, ApplyLatency: f.applyHist},
		Flight:    f.flight,
	})
	st := &state{
		srv:     srv,
		svc:     svc,
		applier: serve.NewApplier(svc, srv.Cache(), srv.QuarantineTable()),
	}
	old := f.cur.Swap(st)
	from := svc.WALWatermark()
	f.log.Info("bootstrap complete", "primary", f.cfg.Primary, "watermarkLsn", from)
	f.applied.Store(from)
	// The watermark is the authoritative position in whatever history
	// this snapshot came from: after a journal-reset resync the old
	// frontier belongs to a dead history and would report phantom lag
	// forever. The first tail's header re-raises it within one poll.
	f.frontier.Store(from)
	f.lastTail.Store(time.Now().UnixNano())
	if old != nil {
		old.srv.Close()
	}
	return nil
}

// run is the tail loop: stream, apply, reconnect; re-bootstrap on gap.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.reconnectBackoff
	for f.ctx.Err() == nil {
		err := f.tailOnce()
		switch {
		case f.ctx.Err() != nil:
			return
		case err == nil:
			// Clean stream end (idle long-poll or bounded duration):
			// reconnect immediately, that IS the protocol.
			backoff = f.cfg.reconnectBackoff
			continue
		case errors.Is(err, errNeedsResync):
			f.log.Warn("tail needs re-bootstrap", "appliedLsn", f.applied.Load())
			f.resyncs.Add(1)
			if berr := f.bootstrap(); berr != nil {
				f.log.Error("re-bootstrap failed", "err", berr, "backoff", backoff)
				f.sleep(backoff)
				backoff = min(backoff*2, 16*f.cfg.reconnectBackoff)
			} else {
				backoff = f.cfg.reconnectBackoff
			}
		default:
			f.log.Warn("tail stream failed", "err", err, "appliedLsn", f.applied.Load(), "backoff", backoff)
			f.reconnects.Add(1)
			f.sleep(backoff)
			backoff = min(backoff*2, 16*f.cfg.reconnectBackoff)
		}
	}
}

func (f *Follower) sleep(d time.Duration) {
	select {
	case <-f.ctx.Done():
	case <-time.After(d):
	}
}

// errNeedsResync marks conditions tailing cannot repair: the primary
// compacted past our position, or the stream contradicted itself.
var errNeedsResync = errors.New("replicate: needs re-bootstrap")

// tailOnce opens one stream and applies frames until it ends. A nil
// return is a clean end (reconnect); errNeedsResync demands a fresh
// bootstrap; anything else is a transport fault worth a backoff.
func (f *Follower) tailOnce() error {
	st := f.cur.Load()
	from := f.applied.Load()
	url := fmt.Sprintf("%s%s?from=%d&wait=%d",
		f.cfg.Primary, api.RouteV2WAL, from, f.cfg.pollWait.Milliseconds())
	// Bound the whole exchange: the primary closes every stream within
	// its bounded duration (~20s) plus our idle window, so a response
	// still open past that means the primary silently died mid-stream
	// (partition, power loss — no RST ever comes). Without this bound
	// the body read would sit on a dead socket until TCP keepalive
	// (minutes), applying nothing and serving ever-staler state.
	ctx, cancel := context.WithTimeout(f.ctx, f.cfg.pollWait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		apiErr := client.DecodeError(resp)
		if apiErr.Code == api.CodeWALGap {
			return errNeedsResync
		}
		return apiErr
	}
	if v, perr := strconv.ParseUint(resp.Header.Get(api.WALFrontierHeader), 10, 64); perr == nil {
		if v < f.applied.Load() {
			// The primary's durable frontier is BEHIND what we applied:
			// its journal restarted (wal-dir wiped or replaced), so LSNs
			// there belong to a different history. The stream would sit
			// empty until the new journal grows past our position and
			// then graft foreign records onto our state; rebuild from a
			// fresh snapshot instead. (A reset the follower never sees —
			// offline while the new journal outgrows our applied LSN — is
			// undetectable without a journal epoch; the bounded stream
			// duration keeps that window to one reconnect cycle.)
			return errNeedsResync
		}
		f.observeFrontier(v)
	}
	if ct := resp.Header.Get("Content-Type"); ct != api.WALStreamContentType {
		// A peer speaking another stream format: apply nothing.
		return fmt.Errorf("replicate: %s answered content type %q, want %q", url, ct, api.WALStreamContentType)
	}
	body, err := wal.NewSegmentReader(resp.Body, url)
	if err != nil {
		return err
	}
	if first := body.NextLSN(); first != from+1 {
		// The body does not continue our history where we asked.
		return fmt.Errorf("%w: stream starts at LSN %d, asked for %d", errNeedsResync, first, from+1)
	}
	f.lastTail.Store(time.Now().UnixNano())

	for {
		// Records are dense from the header's LSN on, and each arrives
		// whole and CRC-checked or not at all.
		lsn, payload, rerr := body.Next()
		if rerr == io.EOF {
			return nil // primary closed between frames: clean end
		}
		if rerr != nil {
			// Torn mid-frame or corrupt: drop the connection and resume
			// from the last applied LSN. Nothing partial was applied.
			return rerr
		}
		applyStart := time.Now()
		aerr := st.applier.Apply(lsn, payload)
		f.applyHist.ObserveSince(applyStart)
		if aerr != nil {
			// Undecodable record: local state may now be behind in a way
			// tailing cannot express. Rebuild from a fresh snapshot.
			return errNeedsResync
		}
		f.applied.Store(lsn)
		f.observeFrontier(lsn)
		f.recordsApplied.Add(1)
		f.lastTail.Store(time.Now().UnixNano())
	}
}

// observeFrontier advances the observed primary frontier monotonically.
func (f *Follower) observeFrontier(lsn uint64) {
	for {
		cur := f.frontier.Load()
		if lsn <= cur || f.frontier.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// ServeHTTP delegates to the current serving core, so a Follower can
// be passed directly to http.Server even across re-syncs.
func (f *Follower) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.cur.Load().srv.ServeHTTP(w, r)
}

// Server returns the current serving core (replaced wholesale on
// re-sync; keep no long-lived references across calls).
func (f *Follower) Server() *serve.Server { return f.cur.Load().srv }

// Lag returns how many records the replica is behind the newest
// durable primary position it has observed.
func (f *Follower) Lag() int64 {
	lag := int64(f.frontier.Load()) - int64(f.applied.Load())
	if lag < 0 {
		return 0
	}
	return lag
}

// Stats reports the follower's replication view — handed to each
// serving core as its serve.TailProbe.
func (f *Follower) Stats() api.ReplicationStats {
	return api.ReplicationStats{Role: api.RoleFollower, LeaderURL: f.cfg.Primary, ReplicationFollower: api.ReplicationFollower{
		AppliedLSN:     f.applied.Load(),
		FrontierLSN:    f.frontier.Load(),
		LagRecords:     f.Lag(),
		LastTailSec:    time.Since(time.Unix(0, f.lastTail.Load())).Seconds(),
		RecordsApplied: f.recordsApplied.Load(),
		Reconnects:     f.reconnects.Load(),
		Resyncs:        f.resyncs.Load(),
	}}
}

// WaitCaughtUp blocks until the replica has applied everything the
// primary reports durable at call time (a fence for tests, rollover
// orchestration, and read-your-writes gating), or the timeout expires.
func (f *Follower) WaitCaughtUp(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	stats, err := f.cl.Stats(ctx)
	if err != nil {
		return fmt.Errorf("replicate: reading primary frontier: %w", err)
	}
	var target uint64
	if stats.WAL != nil {
		target = stats.WAL.SyncedLSN
	}
	for f.applied.Load() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("replicate: still %d records behind LSN %d after %v",
				target-f.applied.Load(), target, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// Close stops the tail loop and shuts down the serving core.
func (f *Follower) Close() {
	f.cancel()
	<-f.done
	if st := f.cur.Load(); st != nil {
		st.srv.Close()
	}
}

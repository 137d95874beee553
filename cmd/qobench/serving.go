package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/replicate"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// world is one set-up serving deployment plus the load that will be
// driven at it: everything setUp builds and tearDown releases.
type world struct {
	spec   *spec
	seed   int64
	pop    []tmpl
	stream *opStream
	hash   string // streamHash, the fingerprint of the inputs

	dir      string
	journal  *wal.WAL
	primary  *serve.Server
	pURL     string
	pStop    func()
	follower *replicate.Follower
	fURL     string
	fStop    func()

	workers    []*worker
	transports []*http.Transport
	admin      *client.Client // primary, out of band: stats, rollover
	fAdmin     *client.Client // follower stats

	lastCkpt     string // newest checkpoint on disk; the set-up one at first (WAL workloads)
	rolloverFile []byte

	genDur       time.Duration
	genAllocs    uint64
	installHints time.Duration
	bootstrap    time.Duration
	ckptDur      []time.Duration
	ckptBytes    []int64
	rolloverDur  time.Duration
	lag          []int64

	// Written by trigger goroutines, read after the body has joined them.
	sideMu  sync.Mutex
	sideErr error
}

// walSegmentBytes is the journal's segment size in every WAL workload:
// 8 MiB, an eighth of the default. A body stands in for hours of
// service in twenty seconds; at the default 64 MiB bandit_learn's
// journal rolls three times in a body, and whether one of those rolls
// falls inside a checkpoint — which leaves a sealed segment for the
// checkpoint's audit-index build to scan, 400,000 allocations — was a
// coin toss that moved allocs_per_job by 1.1% in one run in three. At
// 8 MiB the journal rolls 27 times, every checkpoint truncates several
// segments, and a roll inside a checkpoint costs 0.13%.
const walSegmentBytes = 8 << 20

// hintFor is the hint a hinted template carries: flip its first span
// rule (alt selects the second, which is what a rollover changes to).
func hintFor(cat *rules.Catalog, i int, t *tmpl, alt bool) sis.Hint {
	bit := t.span[0]
	if alt {
		bit = t.span[1]
	}
	return sis.Hint{TemplateHash: uint64(t.hash), TemplateID: fmt.Sprintf("t%06d", i), Flip: cat.FlipFor(bit), Day: 1}
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	// Close, not Shutdown: by the time a listener stops its load is
	// over, and the follower's long-poll tail would hold Shutdown open.
	stop = func() { srv.Close(); <-done }
	return "http://" + ln.Addr().String(), stop, nil
}

// rngFor derives a workload's generator from -seed, the only source of
// randomness in the driver.
func rngFor(seed int64, salt string) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("qobench/%s/%d", salt, seed)))
	var v int64
	for _, b := range h[:8] {
		v = v<<8 | int64(b)
	}
	return rand.New(rand.NewSource(v))
}

// setUp builds a serving workload from nothing: inputs from the seed,
// servers, journal, follower, hints, load workers, and a warm-up of 5%
// of the body so caches, connections and lazily sized maps are in their
// steady state before anything is measured. totalOps is warm-up plus
// every measured pass.
func setUp(ctx context.Context, sp *spec, seed int64, sz sizes) (wl *world, err error) {
	wl = &world{spec: sp, seed: seed}
	defer func() {
		if err != nil {
			wl.tearDown()
		}
	}()
	wl.generate(rngFor(seed, sp.name), sz.pop, sz.totalOps())
	return wl, wl.deploy(ctx, sz)
}

// generate draws the world's inputs — the population, unless the caller
// has supplied one, and the op stream — and records what that cost.
func (wl *world) generate(rng *rand.Rand, popSize, ops int) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t := time.Now()
	if wl.pop == nil {
		wl.pop = genPopulation(rng, popSize)
	}
	wl.stream = genStream(rng, len(wl.pop), ops)
	wl.genDur = time.Since(t)
	runtime.ReadMemStats(&ms1)
	wl.genAllocs = ms1.Mallocs - ms0.Mallocs
	wl.hash = streamHash(wl.pop, wl.stream)
}

// deploy starts the servers for an already generated population and
// stream, and warms them up.
func (wl *world) deploy(ctx context.Context, sz sizes) (err error) {
	sp := wl.spec
	if wl.dir, err = os.MkdirTemp(scratchRoot(), "qobench-"+sp.name+"-"); err != nil {
		return err
	}
	cfg := serve.Config{Seed: wl.seed, Drift: new(drift.Config)}
	*cfg.Drift = drift.DefaultConfig()
	if sp.wal {
		wl.journal, err = wal.Open(wal.Options{Dir: filepath.Join(wl.dir, "wal"), Mode: sp.walMode, SegmentBytes: walSegmentBytes})
		if err != nil {
			return err
		}
		cfg.WAL = wl.journal
	}
	if sp.banditFrom != nil {
		cfg.Bandit = sp.banditFrom
	}
	wl.primary = serve.New(cfg)
	if wl.pURL, wl.pStop, err = listen(wl.primary); err != nil {
		return err
	}
	wl.admin = client.New(wl.pURL, client.WithTimeout(60*time.Second))

	if sp.hintFile != nil {
		// pipeline_day: the SIS file goes in over HTTP, as a rollover does.
		t := time.Now()
		if _, err = wl.admin.InstallHints(ctx, bytes.NewReader(sp.hintFile)); err != nil {
			return fmt.Errorf("installing hints over HTTP: %w", err)
		}
		wl.installHints = time.Since(t)
	} else if sp.hinted != nil {
		cat := rules.NewCatalog()
		var hints, rolled []sis.Hint
		for i := range wl.pop {
			if !sp.hinted(i) {
				continue
			}
			hints = append(hints, hintFor(cat, i, &wl.pop[i], false))
			// The mid-body rollover re-issues the table with every tenth
			// hint changed; coverage stays the same.
			rolled = append(rolled, hintFor(cat, i, &wl.pop[i], len(hints)%10 == 0))
		}
		t := time.Now()
		if _, err = wl.primary.InstallHints(hints); err != nil {
			return fmt.Errorf("installing hints: %w", err)
		}
		wl.installHints = time.Since(t)
		if sp.rollover {
			var buf bytes.Buffer
			if err = sis.Serialize(&buf, sis.File{Day: 2, Hints: rolled}); err != nil {
				return err
			}
			wl.rolloverFile = buf.Bytes()
		}
	}

	endpoints := []string{wl.pURL}
	if sp.follower {
		t := time.Now()
		wl.follower, err = replicate.Start(replicate.Config{Primary: wl.pURL, Seed: wl.seed})
		if err != nil {
			return fmt.Errorf("starting follower: %w", err)
		}
		if wl.fURL, wl.fStop, err = listen(wl.follower); err != nil {
			return err
		}
		if err = wl.follower.WaitCaughtUp(ctx, 30*time.Second); err != nil {
			return err
		}
		wl.bootstrap = time.Since(t)
		wl.fAdmin = client.New(wl.fURL, client.WithTimeout(60*time.Second))
		endpoints = append(endpoints, wl.fURL)
	}

	// One private connection pool per worker: exactly one keep-alive
	// connection per node in flight, and — for the cluster — a private
	// read rotation, so which node serves op i is decided by i alone.
	perWorker := sz.maxPass()/clients + 2
	delay := sp.delay / clients
	for id := 0; id < clients; id++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		wl.transports = append(wl.transports, tr)
		opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: tr, Timeout: 30 * time.Second})}
		var tgt target = client.New(wl.pURL, opts...)
		if sp.follower {
			if tgt, err = client.NewCluster(endpoints, opts...); err != nil {
				return err
			}
		}
		wl.workers = append(wl.workers, newWorker(id, tgt, perWorker+delay, delay))
	}

	if warm := runBody(ctx, wl, &bodyPlan{lo: 0, hi: sz.warm, delay: delay}); warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d ops failed", warm.failed, warm.attempted)
	}
	if sp.wal {
		wl.lastCkpt = filepath.Join(wl.dir, "base.snap")
		if _, err = wl.primary.Checkpoint(wl.lastCkpt); err != nil {
			return fmt.Errorf("set-up checkpoint: %w", err)
		}
		if sp.follower {
			if err = wl.follower.WaitCaughtUp(ctx, 30*time.Second); err != nil {
				return err
			}
		}
	}
	return nil
}

func (wl *world) tearDown() {
	for _, tr := range wl.transports {
		tr.CloseIdleConnections()
	}
	if wl.fStop != nil {
		wl.fStop()
	}
	if wl.follower != nil {
		wl.follower.Close()
	}
	if wl.pStop != nil {
		wl.pStop()
	}
	if wl.primary != nil {
		wl.primary.Close()
	}
	if wl.journal != nil {
		wl.journal.Close()
	}
	if wl.dir != "" {
		os.RemoveAll(wl.dir)
	}
}

// plan builds the measured pass over ops [lo, hi): checkpoints at the
// interior quarter points, the rollover at the midpoint, replication
// lag sampled along the way.
func (wl *world) plan(lo, hi int, tr *tracer) *bodyPlan {
	sp := wl.spec
	p := &bodyPlan{lo: lo, hi: hi, delay: sp.delay / clients, tr: tr}
	n := hi - lo
	for k := 1; k <= sp.checkpoints; k++ {
		path := filepath.Join(wl.dir, fmt.Sprintf("ckpt-%d.snap", k))
		p.triggers = append(p.triggers, trigger{op: lo + k*n/(sp.checkpoints+1), fn: func() {
			info, err := wl.primary.Checkpoint(path)
			wl.sideMu.Lock()
			defer wl.sideMu.Unlock()
			if err != nil {
				wl.sideErr = errors.Join(wl.sideErr, fmt.Errorf("checkpoint: %w", err))
				return
			}
			wl.ckptDur = append(wl.ckptDur, info.Duration)
			wl.ckptBytes = append(wl.ckptBytes, info.Bytes)
			wl.lastCkpt = path
		}})
	}
	if sp.rollover {
		p.triggers = append(p.triggers, trigger{op: lo + n/2, fn: func() {
			t := time.Now()
			_, err := wl.admin.InstallHints(context.Background(), bytes.NewReader(wl.rolloverFile))
			wl.sideMu.Lock()
			defer wl.sideMu.Unlock()
			if err != nil {
				wl.sideErr = errors.Join(wl.sideErr, fmt.Errorf("rollover: %w", err))
			}
			wl.rolloverDur = time.Since(t)
		}})
	}
	if wl.follower != nil {
		wl.lag = make([]int64, 0, n/clients/sampleEvery+2)
		p.sample = func() { wl.lag = append(wl.lag, wl.follower.Lag()) }
	}
	return p
}

// scrape reads /v2/stats from every node.
func (wl *world) scrape(ctx context.Context) (p, f api.StatsResponse, err error) {
	if p, err = wl.admin.Stats(ctx); err != nil {
		return p, f, fmt.Errorf("scraping primary: %w", err)
	}
	if wl.fAdmin != nil {
		if f, err = wl.fAdmin.Stats(ctx); err != nil {
			return p, f, fmt.Errorf("scraping follower: %w", err)
		}
	}
	return p, f, nil
}

// checker accumulates output-check failures; any failure makes the run
// incorrect and the exit code non-zero.
type checker struct{ fails []string }

func (c *checker) eq(what string, got, want int64) {
	if got != want {
		c.fails = append(c.fails, fmt.Sprintf("%s: got %d, want %d", what, got, want))
	}
}

func (c *checker) ok(cond bool, format string, args ...any) {
	if !cond {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

// reconcile checks the servers' own counters against what the driver
// sent between the window's two scrapes.
func (wl *world) reconcile(c *checker, w *window) {
	res, p0, p1 := &w.body, w.p0, w.p1
	rankedOps := int64(0)
	for _, w := range wl.workers {
		for i := 0; i < w.n; i++ {
			if w.rankNs[i] > 0 {
				rankedOps++
			}
		}
	}
	c.ok(wl.sideErr == nil, "side action failed: %v", wl.sideErr)
	c.eq("ops failed", int64(res.failed), 0)
	c.eq("/v2/stats rankRequests vs jobs sent", w.rankRequests(), rankedOps*batchSize)
	c.eq("/v2/stats hintHits vs hint-served responses", w.hintHits(), res.hintJobs)
	c.eq("/v2/stats ingest.enqueued vs rewards queued", p1.Ingest.Enqueued-p0.Ingest.Enqueued, res.queued)
	c.eq("/v2/stats ingest.applied vs enqueued", p1.Ingest.Applied-p0.Ingest.Applied, p1.Ingest.Enqueued-p0.Ingest.Enqueued)
	c.eq("/v2/stats ingest.dropped", p1.Ingest.Dropped-p0.Ingest.Dropped, 0)
	c.eq("rewards acked vs jobs ranked", res.rewardsAcked, res.jobsRanked)
	if p0.Drift != nil && p1.Drift != nil {
		c.eq("drift transitions (stationary rewards)", p1.Drift.Transitions, 0)
		c.eq("/v2/stats drift.observations vs rewards observed", p1.Drift.Observations-p0.Drift.Observations, res.observed)
	}
	if wl.spec.allHinted {
		// serve.hint_hit_ratio = 1 exactly, from the servers' own counters.
		c.eq("hint_hit: /v2/stats hintHits vs rankRequests", w.hintHits(), w.rankRequests())
	}
}

// modelBytes is a server's persisted model with the watermark field
// removed: primary and follower sit at different covered LSNs by
// design, everything else must match byte for byte.
func modelBytes(s *serve.Server) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	nl := bytes.IndexByte(b, '\n')
	if nl < 0 {
		return nil, errors.New("snapshot has no header line")
	}
	head := b[:nl]
	if i := bytes.LastIndex(head, []byte(" wal=")); i >= 0 {
		head = head[:i]
	}
	return append(append([]byte{}, head...), b[nl:]...), nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recovery is the crash-recovery check and the run that times recovery.
type recovery struct {
	dur     time.Duration
	records int
	sha     string
}

// checkRecovery rebuilds the model from the newest checkpoint plus the
// journal tail and requires its snapshot byte-identical to the live one.
func (wl *world) checkRecovery(c *checker) recovery {
	var r recovery
	if err := wl.journal.Sync(); err != nil {
		c.ok(false, "journal sync: %v", err)
		return r
	}
	wl.primary.Bandit().SetWALWatermark(wl.journal.LastLSN())
	var live bytes.Buffer
	if err := wl.primary.SnapshotTo(&live); err != nil {
		c.ok(false, "live snapshot: %v", err)
		return r
	}
	t := time.Now()
	rec, err := serve.Recover(wal.DirSource{Dir: wl.journal.Dir()}, wl.lastCkpt, 0, 0, wl.seed)
	r.dur = time.Since(t)
	if err != nil {
		c.ok(false, "recover: %v", err)
		return r
	}
	r.records = int(rec.Journal.Records)
	var rebuilt bytes.Buffer
	if err := rec.Service.Save(&rebuilt); err != nil {
		c.ok(false, "recovered snapshot: %v", err)
		return r
	}
	r.sha = sha(live.Bytes())
	c.ok(rec.SnapshotLoaded, "recovery did not load checkpoint %s", wl.lastCkpt)
	c.ok(bytes.Equal(live.Bytes(), rebuilt.Bytes()),
		"recovery from %s + %d journal records is not byte-identical to the live model (live %s, rebuilt %s)",
		filepath.Base(wl.lastCkpt), r.records, r.sha, sha(rebuilt.Bytes()))
	return r
}

// checkFollower fences the follower on the primary's durable frontier
// and requires the two models to be identical.
func (wl *world) checkFollower(ctx context.Context, c *checker) (catchup time.Duration) {
	if err := wl.journal.Sync(); err != nil {
		c.ok(false, "journal sync: %v", err)
		return 0
	}
	t := time.Now()
	if err := wl.follower.WaitCaughtUp(ctx, 60*time.Second); err != nil {
		c.ok(false, "follower: %v", err)
		return time.Since(t)
	}
	catchup = time.Since(t)
	pm, err1 := modelBytes(wl.primary)
	fm, err2 := modelBytes(wl.follower.Server())
	if err := errors.Join(err1, err2); err != nil {
		c.ok(false, "model snapshots: %v", err)
		return catchup
	}
	c.ok(sha(pm) == sha(fm), "follower model sha256 %s differs from primary %s", sha(fm), sha(pm))
	return catchup
}

// heapLive is HeapAlloc once ingestion has drained and two collections
// have run, in MB.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// probeService is a learner loaded from the primary's current snapshot,
// for timing bandit entry points without touching the served one.
func probeService(s *serve.Server, seed int64) (*bandit.Service, error) {
	var buf bytes.Buffer
	if err := s.SnapshotTo(&buf); err != nil {
		return nil, err
	}
	return bandit.Load(&buf, seed)
}

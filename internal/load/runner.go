package load

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/wal"
)

// Target is the slice of the serving API an op exercises: one rank
// batch plus the reward follow-up that closes the steering loop. Both
// *client.Client and *client.Cluster satisfy it, so a run can drive a
// single node or a primary+followers rotation unchanged.
type Target interface {
	RankBatch(ctx context.Context, jobs []api.RankRequest) (api.BatchRankResponse, error)
	RewardBatch(ctx context.Context, events []api.RewardEvent) (api.BatchRewardResponse, error)
}

// Config parameterizes a Runner.
type Config struct {
	Target Target
	// Batch is the jobs per scheduled op (default 16, at most
	// api.MaxRankBatch).
	Batch int
	// Seed makes template populations and mixes reproducible.
	Seed int64
}

// Timeout bounds each op; qoload gives its clients the same bound.
const Timeout = 30 * time.Second

const (
	// templates is the synthetic template population size.
	templates = 64
	// zipfS is the Zipf skew exponent over the template population
	// (> 1). Rank 0 dominates, the tail is heavy — the same shape real
	// workloads show.
	zipfS = 1.3
	// workers caps concurrent in-flight ops. When every worker is
	// blocked on a stalled server, later ops start late and their
	// open-loop latency grows — by design.
	workers = 64
)

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 16
	}
	c.Batch = min(c.Batch, api.MaxRankBatch)
	return c
}

// template is one member of the synthetic population.
type template struct {
	hash  api.TemplateHash
	span  []int
	rows  float64
	bytes float64
}

// Result is one phase's measurements.
type Result struct {
	Phase Phase
	// Offered is the number of scheduled ops; Completed is how many ran
	// to the end (successfully or with a typed error).
	Offered   int
	Completed int
	// RankedJobs counts jobs that received a steering decision;
	// RewardedEvents counts telemetry events accepted by the server.
	RankedJobs     int64
	RewardedEvents int64
	// Errors is the typed failure breakdown: api error codes plus
	// "transport" for connection-level failures.
	Errors map[string]int64
	// Hist is the op latency distribution, measured from each op's
	// *scheduled* send time.
	Hist obs.HistSnapshot
	// Elapsed is the wall time the run took.
	Elapsed time.Duration
}

// Goodput is successfully ranked jobs per second of wall time.
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.RankedJobs) / r.Elapsed.Seconds()
}

// Runner drives load against a Target.
type Runner struct {
	cfg       Config
	templates []template
}

// NewRunner builds a runner with a seeded synthetic template
// population: spans, row counts and byte sizes are drawn once so every
// phase of a run (and every run with the same seed) sees the same
// workload shape.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ts := make([]template, templates)
	for i := range ts {
		lo := rng.Intn(48)
		ts[i] = template{
			hash:  api.TemplateHash(rng.Uint64() | 1),
			span:  []int{lo, lo + 1 + rng.Intn(15)},
			rows:  float64(1 + rng.Intn(1_000_000)),
			bytes: float64(1 + rng.Intn(1_000_000_000)),
		}
	}
	return &Runner{cfg: cfg, templates: ts}
}

// errTally accumulates the typed-error breakdown across workers.
type errTally struct {
	mu sync.Mutex
	m  map[string]int64
}

func (t *errTally) add(code string) {
	t.mu.Lock()
	t.m[code]++
	t.mu.Unlock()
}

// opStats is the shared accumulation state of one run.
type opStats struct {
	hist      obs.Histogram
	ranked    atomic.Int64
	rewarded  atomic.Int64
	completed atomic.Int64
	errs      errTally
}

// RunPhase executes one phase open-loop: the full send schedule is
// computed up front, workers sleep until each op's scheduled instant,
// and latency is measured from that instant regardless of when the op
// actually got a worker — so server stalls surface as tail latency
// instead of silently thinning the arrival stream.
func (r *Runner) RunPhase(ctx context.Context, p Phase) Result {
	sched := p.Schedule()
	start := time.Now()
	times := make(chan time.Time, len(sched))
	for _, off := range sched {
		times <- start.Add(off)
	}
	close(times)

	st := &opStats{errs: errTally{m: make(map[string]int64)}}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + int64(w) + 1))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(r.templates)-1))
			for at := range times {
				if d := time.Until(at); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				if ctx.Err() != nil {
					return
				}
				r.doOp(ctx, at, rng, zipf, st)
			}
		}(w)
	}
	wg.Wait()

	return Result{
		Phase:          p,
		Offered:        len(sched),
		Completed:      int(st.completed.Load()),
		RankedJobs:     st.ranked.Load(),
		RewardedEvents: st.rewarded.Load(),
		Errors:         st.errs.m,
		Hist:           st.hist.Snapshot(),
		Elapsed:        time.Since(start),
	}
}

// doOp executes one op — rank a batch, reward its bandit decisions —
// and records its latency from the scheduled send time `at`.
func (r *Runner) doOp(ctx context.Context, at time.Time, rng *rand.Rand, zipf *rand.Zipf, st *opStats) {
	opCtx, cancel := context.WithTimeout(ctx, Timeout)
	defer cancel()

	jobs := make([]api.RankRequest, r.cfg.Batch)
	hashes := make([]api.TemplateHash, r.cfg.Batch)
	for i := range jobs {
		t := r.templates[zipf.Uint64()]
		hashes[i] = t.hash
		jobs[i] = api.RankRequest{
			TemplateHash: t.hash,
			Span:         t.span,
			RowCount:     t.rows,
			BytesRead:    t.bytes,
		}
	}
	resp, err := r.cfg.Target.RankBatch(opCtx, jobs)
	if err != nil {
		st.errs.add(errCode(err))
		st.completed.Add(1)
		return
	}
	var events []api.RewardEvent
	for i, res := range resp.Results {
		if res.Error != nil {
			st.errs.add(res.Error.Code)
			continue
		}
		st.ranked.Add(1)
		if res.EventID != "" {
			reward := rng.Float64()
			events = append(events, api.RewardEvent{
				EventID:      res.EventID,
				Reward:       &reward,
				TemplateHash: &hashes[i],
			})
		}
	}
	if len(events) > 0 {
		rresp, rerr := r.cfg.Target.RewardBatch(opCtx, events)
		if rerr != nil {
			st.errs.add(errCode(rerr))
		} else {
			st.rewarded.Add(int64(rresp.Queued))
			for _, rej := range rresp.Rejected {
				st.errs.add(rej.Error.Code)
			}
		}
	}
	st.hist.Observe(time.Since(at))
	st.completed.Add(1)
}

// errCode maps an op failure to its tally key: the api error code when
// the server answered with an envelope, "transport" otherwise.
func errCode(err error) string {
	var apiErr *api.Error
	if errors.As(err, &apiErr) {
		return apiErr.Code
	}
	return "transport"
}

// StallFS is a wal.FS whose files' Syncs first sleep for what the
// function SetDelay installed returns: a slow disk's fsync, injected
// under the journal, so commit waiters, the sync histogram and a
// snapshot publish all wait it out. Build it over the FS it decorates
// (&StallFS{FS: wal.OS{}}) and pass it as wal.Options.FS.
type StallFS struct {
	wal.FS
	delay atomic.Pointer[func() time.Duration]
}

// SetDelay installs fn, consulted by every Sync of a file s opened (nil
// removes it). fn must be safe for concurrent use.
func (s *StallFS) SetDelay(fn func() time.Duration) { s.delay.Store(&fn) }

func (s *StallFS) Create(path string) (wal.File, error) { return s.wrap(s.FS.Create(path)) }

func (s *StallFS) OpenAt(path string, size int64) (wal.File, error) {
	return s.wrap(s.FS.OpenAt(path, size))
}

func (s *StallFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return stallFile{f, s}, nil
}

type stallFile struct {
	wal.File
	fs *StallFS
}

func (f stallFile) Sync() error {
	if fn := f.fs.delay.Load(); fn != nil && *fn != nil {
		time.Sleep((*fn)())
	}
	return f.File.Sync()
}

// ArmStall arms a one-shot fsync stall on s: the first Sync once the arm
// is `after` old sleeps for `stall`, freezing every sync-mode commit in
// flight behind it. s.SetDelay(nil) disarms it.
func ArmStall(s *StallFS, after, stall time.Duration) {
	start := time.Now()
	var fired atomic.Bool
	s.SetDelay(func() time.Duration {
		if time.Since(start) >= after && fired.CompareAndSwap(false, true) {
			return stall
		}
		return 0
	})
}

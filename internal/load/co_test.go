package load

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qoadvisor/internal/api/client"
	"qoadvisor/internal/nodetest"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/wal"
)

// runClosedLoopN drives n ops back-to-back across `workers` concurrent
// loops, measuring each op from its *actual* send time. This is the
// coordinated-omission reference arm: when the server stalls, a closed
// loop simply stops sending, so the stall appears in at most one
// sample per worker and the offered load silently drops. Its
// percentiles therefore under-report exactly the incidents an
// open-loop run is built to expose; TestCoordinatedOmission pins that
// gap.
func (r *Runner) runClosedLoopN(ctx context.Context, n, workers int) Result {
	if workers <= 0 {
		workers = 1
	}
	start := time.Now()
	st := &opStats{errs: errTally{m: make(map[string]int64)}}
	var remaining = make(chan struct{}, n)
	for i := 0; i < n; i++ {
		remaining <- struct{}{}
	}
	close(remaining)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.cfg.Seed + 7919*int64(w+1)))
			zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(r.templates)-1))
			for range remaining {
				if ctx.Err() != nil {
					return
				}
				r.doOp(ctx, time.Now(), rng, zipf, st)
			}
		}(w)
	}
	wg.Wait()

	return Result{
		Phase:          Phase{Name: "closed-loop", Shape: ShapeConstant, Duration: time.Since(start)},
		Offered:        n,
		Completed:      int(st.completed.Load()),
		RankedJobs:     st.ranked.Load(),
		RewardedEvents: st.rewarded.Load(),
		Errors:         st.errs.m,
		Hist:           st.hist.Snapshot(),
		Elapsed:        time.Since(start),
	}
}

// TestCoordinatedOmission pins the reason this harness is open-loop.
// The same workload runs twice against a sync-mode WAL server with an
// identical injected fsync stall:
//
//   - open-loop: arrivals keep coming on schedule during the stall, so
//     every op queued behind the frozen group commit measures its full
//     wait from its scheduled send time — the stall lands in p99;
//   - closed-loop: the driver just stops sending while stalled, so the
//     stall appears in at most one sample per worker and p99 stays at
//     the fast-path figure.
//
// A closed-loop benchmark would therefore certify a latency SLO this
// server does not meet. That is coordinated omission.
func TestCoordinatedOmission(t *testing.T) {
	const stall = 600 * time.Millisecond
	ctx := context.Background()

	// Each arm's server journals in sync mode through a StallFS: every
	// reward batch's acknowledgment waits for the group fsync, so a
	// stalled Sync stalls the reward path exactly like a sick disk would.
	syncNode := func() (*StallFS, *client.Client) {
		fsys := &StallFS{FS: wal.OS{}}
		_, cl := nodetest.Serve(t, serve.New(serve.Config{Seed: 42, WAL: nodetest.Journal(t, wal.Options{Mode: wal.ModeSync, FS: fsys})}))
		return fsys, cl
	}

	// Open-loop arm: 200 ops/s for 1.2s, stall at t=300ms. The ~120 ops
	// scheduled during the stall back up behind the frozen fsync.
	fsOpen, clOpen := syncNode()
	open := NewRunner(Config{Target: clOpen, Batch: 2, Seed: 11})
	ArmStall(fsOpen, 300*time.Millisecond, stall)
	openRes := open.RunPhase(ctx, Phase{
		Name: "stall-open", Shape: ShapeConstant, Duration: 1200 * time.Millisecond, Low: 200,
	})

	// Closed-loop arm: same server config, same stall, one back-to-back
	// worker issuing a fixed op count so exactly one sample absorbs the
	// whole stall.
	fsClosed, clClosed := syncNode()
	closed := NewRunner(Config{Target: clClosed, Batch: 2, Seed: 11})
	ArmStall(fsClosed, 300*time.Millisecond, stall)
	closedRes := closed.runClosedLoopN(ctx, 400, 1)

	openP99 := openRes.Hist.Quantile(0.99)
	closedP99 := closedRes.Hist.Quantile(0.99)
	t.Logf("open-loop p99 %v (%d ops, errs %v); closed-loop p99 %v (%d ops, errs %v)",
		openP99, openRes.Completed, openRes.Errors, closedP99, closedRes.Completed, closedRes.Errors)

	if openRes.RankedJobs == 0 || closedRes.RankedJobs == 0 {
		t.Fatal("both arms must rank jobs")
	}
	// The open-loop tail must carry a large fraction of the stall.
	if openP99 < stall/3 {
		t.Fatalf("open-loop p99 %v failed to capture the %v stall", openP99, stall)
	}
	// The closed-loop tail must miss it: 1 stalled sample in 400 sits
	// beyond the 99th percentile.
	if closedP99 > stall/3 {
		t.Fatalf("closed-loop p99 %v unexpectedly captured the stall — control arm broken", closedP99)
	}
	if openP99 < 3*closedP99 {
		t.Fatalf("open-loop p99 %v must dwarf closed-loop p99 %v", openP99, closedP99)
	}
}

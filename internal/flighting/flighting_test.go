package flighting

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/workload"
)

func testJobs(t *testing.T, n int) []*workload.Job {
	t.Helper()
	gen, err := workload.New(workload.Config{Seed: 21, NumTemplates: n})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.JobsForDay(3)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func requestsFor(jobs []*workload.Job, cat *rules.Catalog) []Request {
	def := cat.DefaultConfig()
	var reqs []Request
	for i, j := range jobs {
		// Flip an arbitrary on-by-default rule per job.
		r := cat.Rules(rules.OnByDefault)[i%10]
		flip := rules.Flip{RuleID: r.ID, Enable: false}
		reqs = append(reqs, Request{
			Job:       j,
			Treatment: def.WithFlip(flip),
			EstCost:   float64(i),
			Flip:      flip,
		})
	}
	return reqs
}

func TestRunReturnsResultPerRequest(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 12)
	svc := New(Config{Catalog: cat, Seed: 1})
	reqs := requestsFor(jobs, cat)
	results := svc.Run(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("results = %d, want %d", len(results), len(reqs))
	}
}

func countByOutcome(results []Result) map[Outcome]int {
	m := make(map[Outcome]int)
	for _, r := range results {
		m[r.Outcome]++
	}
	return m
}

func TestOutcomeTaxonomy(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 40)
	svc := New(Config{Catalog: cat, Seed: 1})
	results := svc.Run(requestsFor(jobs, cat))
	counts := countByOutcome(results)
	if counts[Success] == 0 {
		t.Error("expected some successes")
	}
	// The deterministic taxonomy should produce some non-success
	// outcomes over 40+ templates.
	if counts[Failure]+counts[Filtered] == 0 {
		t.Error("expected some failures or filtered jobs")
	}
	for _, r := range results {
		if r.Outcome == Success {
			if r.Baseline.PNHours <= 0 || r.Treat.PNHours <= 0 {
				t.Errorf("success without metrics: %+v", r.Outcome)
			}
			if r.HoursUsed <= 0 {
				t.Error("success should consume budget")
			}
		}
	}
}

func TestBudgetExhaustionSkips(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 30)
	svc := New(Config{Catalog: cat, Seed: 1})
	svc.budget = 1e-9
	results := svc.Run(requestsFor(jobs, cat))
	counts := countByOutcome(results)
	if counts[Skipped] == 0 {
		t.Error("tiny budget should skip most requests")
	}
	if counts[Success] > 1 {
		t.Errorf("tiny budget ran %d successes", counts[Success])
	}
}

func TestCheapestFirstOrdering(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 10)
	// Give the LAST request the lowest estimated cost and a budget that
	// only fits roughly one flight: it must be the one processed.
	reqs := requestsFor(jobs, cat)
	for i := range reqs {
		reqs[i].EstCost = float64(len(reqs) - i)
	}
	svc := New(Config{Catalog: cat, Seed: 1})
	svc.budget = 1e-9
	results := svc.Run(reqs)
	// First processed result must be the cheapest request.
	if len(results) == 0 {
		t.Fatal("no results")
	}
	first := results[0]
	if first.Request.EstCost != 1 {
		t.Errorf("first processed cost = %v, want 1 (cheapest first)", first.Request.EstCost)
	}
}

func TestSuccesses(t *testing.T) {
	rs := []Result{{Outcome: Success}, {Outcome: Failure}, {Outcome: Success}, {Outcome: Skipped}}
	if got := len(Successes(rs)); got != 2 {
		t.Errorf("successes = %d", got)
	}
}

func TestTreatmentCompileFailureIsFailure(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 8)
	def := cat.DefaultConfig()
	req := cat.Rules(rules.Required)[0]
	var reqs []Request
	for _, j := range jobs {
		reqs = append(reqs, Request{
			Job:       j,
			Treatment: def.WithFlip(rules.Flip{RuleID: req.ID, Enable: false}),
		})
	}
	results := New(Config{Catalog: cat, Seed: 1}).Run(reqs)
	for _, r := range results {
		if r.Outcome == Success {
			t.Error("disabling a required rule can never flight successfully")
		}
	}
}

func TestABRunsShareJobButDifferInSeed(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 15)
	svc := New(Config{Catalog: cat, Seed: 5})
	results := svc.Run(requestsFor(jobs, cat))
	for _, r := range Successes(results) {
		if r.Baseline.LatencySec == r.Treat.LatencySec && r.Baseline.DataRead == r.Treat.DataRead {
			// Identical latency AND identical IO would mean the A/B arms
			// shared a seed and a plan; at least the noise must differ.
			t.Error("A and B arms look identical")
		}
	}
}

func TestOutcomeString(t *testing.T) {
	if Success.String() != "success" || Skipped.String() != "skipped" {
		t.Error("outcome names wrong")
	}
	if Outcome(99).String() == "" {
		t.Error("unknown outcome should render")
	}
}

// resultsEqual compares two result slices field-by-field on the
// deterministic payload (outcome, metrics, budget accounting, error
// text) and the request's job ID, flip and estimated cost, not on the
// identity of jobs and compiled plans.
func resultsEqual(t *testing.T, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i := range a {
		if a[i].Outcome != b[i].Outcome ||
			a[i].HoursUsed != b[i].HoursUsed ||
			errText(a[i].Err) != errText(b[i].Err) ||
			a[i].Baseline != b[i].Baseline ||
			a[i].Treat != b[i].Treat ||
			a[i].FutureBaseline != b[i].FutureBaseline ||
			a[i].FutureTreat != b[i].FutureTreat ||
			a[i].HasFuture != b[i].HasFuture ||
			a[i].Request.Job.ID != b[i].Request.Job.ID ||
			a[i].Request.Flip != b[i].Request.Flip ||
			a[i].Request.EstCost != b[i].Request.EstCost {
			t.Fatalf("result %d differs:\nseq: %+v\npar: %+v", i, a[i], b[i])
		}
	}
}

// TestParallelRunMatchesSequential is the determinism contract of the
// worker pool: at GOMAXPROCS 1 and 4, Run produces results bit-identical
// to the one-flight-at-a-time budget fold, both with a generous budget
// and with one tight enough that skips start mid-chunk.
func TestParallelRunMatchesSequential(t *testing.T) {
	cat := rules.NewCatalog()
	reqs := requestsFor(testJobs(t, 14), cat)
	for _, budget := range []float64{0, 0.02} { // 0 = as shipped (generous)
		svc := New(Config{Catalog: cat, Seed: 9})
		if budget > 0 {
			svc.budget = budget
		}
		want := sequentialRun(svc, reqs)
		firstSkip := slices.IndexFunc(want, func(r Result) bool { return r.Outcome == Skipped })
		if budget == 0 && firstSkip >= 0 {
			t.Fatalf("generous budget skipped request %d", firstSkip)
		}
		// Chunks are 4 × GOMAXPROCS long: a first skip off a multiple of
		// 4 lands mid-chunk at both settings below.
		if budget > 0 && (firstSkip <= 0 || firstSkip%4 == 0) {
			t.Fatalf("tight budget first skips request %d of %d; want one mid-chunk", firstSkip, len(want))
		}
		for _, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := svc.Run(reqs)
			runtime.GOMAXPROCS(prev)
			resultsEqual(t, want, got)
		}
	}
}

// sequentialRun is the reference Run is held to: flights one at a time
// in cheapest-first order, each charged to the budget before the next
// starts, and everything past an exhausted budget Skipped.
func sequentialRun(s *Service, reqs []Request) []Result {
	ordered := append([]Request(nil), reqs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].EstCost < ordered[j].EstCost })
	used := 0.0
	var results []Result
	for _, req := range ordered {
		if used >= s.budget {
			results = append(results, Result{Request: req, Outcome: Skipped})
			continue
		}
		res := s.flightOne(req)
		if res.Outcome == Success {
			s.future(&res)
		}
		used += res.HoursUsed
		results = append(results, res)
	}
	return results
}

// TestFutureArmsShareTomorrowsInstance: a flight's validation arms compile
// the recurring job's next-day instance, and that instance — rewrites and
// all — is the one the next day's JobsForDay hands out.
func TestFutureArmsShareTomorrowsInstance(t *testing.T) {
	cat := rules.NewCatalog()
	gen, err := workload.New(workload.Config{Seed: 21, NumTemplates: 12})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.JobsForDay(3)
	if err != nil {
		t.Fatal(err)
	}
	results := New(Config{Catalog: cat, Seed: 1}).Run(requestsFor(jobs, cat))
	misses := gen.CompileCacheStats().Misses
	next, err := gen.JobsForDay(4)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		t   *workload.Template
		seq int
	}
	tomorrow := make(map[key]*workload.Job, len(next))
	for _, j := range next {
		tomorrow[key{j.Template, j.Seq}] = j
	}
	flown := make(map[*workload.Template]bool) // templates whose next instance a flight built
	futures := 0
	for _, r := range Successes(results) {
		flown[r.Request.Job.Template] = true
		if !r.HasFuture {
			continue
		}
		futures++
		j := tomorrow[key{r.Request.Job.Template, r.Request.Job.Seq}]
		// Nothing has compiled tomorrow's job yet, so every lookup its memo
		// counts is a flight's: the default arm and at least this treatment.
		if st := j.CompileOptions(cat).Cache.Stats(); st.Hits+st.Misses < 2 || st.Misses == 0 {
			t.Errorf("%s: tomorrow's instance memo counts %+v, want the flight's 2 lookups and its rewrites", j.ID, st)
		}
	}
	if futures == 0 {
		t.Fatal("no flight ran its validation arms; the test lost its coverage")
	}
	if got, want := gen.CompileCacheStats().Misses-misses, uint64(len(gen.Templates())-len(flown)); got != want {
		t.Errorf("JobsForDay(4) built %d instances; want %d, one per template no flight instantiated", got, want)
	}
}

// TestFlightReusesCompiledTreatment: a flight handed its treatment's
// compilation returns, field for field, the Result of one that compiles
// the treatment itself, and looks up today's rewrite memos less often.
func TestFlightReusesCompiledTreatment(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 24)
	caches := make(map[*optimizer.CompileCache]bool)
	for _, j := range jobs {
		caches[j.CompileOptions(cat).Cache] = true
	}
	lookups := func() uint64 {
		var n uint64
		for c := range caches {
			st := c.Stats()
			n += st.Hits + st.Misses
		}
		return n
	}
	run := func(reqs []Request) ([]Result, uint64) {
		before := lookups()
		results := New(Config{Catalog: cat, Seed: 1}).Run(reqs)
		return results, lookups() - before
	}

	plain := requestsFor(jobs, cat)
	withCompiled := slices.Clone(plain)
	compiled := 0
	for i, req := range withCompiled {
		if res, err := optimizer.Optimize(req.Job.Graph, req.Treatment, req.Job.CompileOptions(cat)); err == nil {
			withCompiled[i].Compiled = res
			compiled++
		}
	}
	want, plainLookups := run(plain)
	got, reuseLookups := run(withCompiled)
	if compiled == 0 || len(Successes(want)) == 0 {
		t.Fatal("no treatment compiled or no flight succeeded; the test lost its coverage")
	}
	t.Logf("%d requests, %d treatments compiled beforehand, %d successes; %d memo lookups without, %d with",
		len(plain), compiled, len(Successes(want)), plainLookups, reuseLookups)
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g := got[i]
		g.Request.Compiled = nil
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("result %d differs with Compiled set:\n got %+v\nwant %+v", i, g, want[i])
		}
	}
	if reuseLookups >= plainLookups {
		t.Errorf("%d rewrite-memo lookups with Compiled set, %d without: the treatment was compiled again", reuseLookups, plainLookups)
	}
}

// advisorDayRequests asks for one flight per job as an advisor day does,
// queued by the treatment's estimated cost: every third job flies the
// first single flip that lowers its cost, carrying that compilation as
// the recommender's improving flips do (Request.Compiled); the others fly
// a flip of one of the first on-by-default rules, compiled by the flight,
// and every seventh job one disabling a required rule, which never
// compiles. A treatment that fails to compile queues at its job's index.
func advisorDayRequests(t *testing.T, jobs []*workload.Job, cat *rules.Catalog) []Request {
	t.Helper()
	def := cat.DefaultConfig()
	reqs := make([]Request, len(jobs))
	compiled, failing := 0, 0
	for i, j := range jobs {
		opts := j.CompileOptions(cat)
		_, base, err := optimizer.Estimate(j.Graph, def, opts)
		if err != nil {
			t.Fatal(err)
		}
		flip := rules.Flip{RuleID: cat.Rules(rules.OnByDefault)[i%10].ID, Enable: false}
		if i%7 == 6 {
			flip.RuleID = cat.Rules(rules.Required)[0].ID
		}
		req := Request{Job: j, Treatment: def.WithFlip(flip), EstCost: float64(i), Flip: flip}
		if i%3 == 0 {
			if f, ok := improvingFlip(cat, j, base); ok {
				req = Request{Job: j, Treatment: def.WithFlip(f), Flip: f}
			}
		}
		if _, cost, err := optimizer.Estimate(j.Graph, req.Treatment, opts); err != nil {
			failing++
		} else if req.EstCost = cost; cost < base {
			if req.Compiled, err = optimizer.Optimize(j.Graph, req.Treatment, opts); err != nil {
				t.Fatal(err)
			}
			compiled++
		}
		reqs[i] = req
	}
	if compiled == 0 || failing == 0 {
		t.Fatalf("%d improving and %d failing treatments; want both", compiled, failing)
	}
	return reqs
}

// improvingFlip returns the first single flip of a rule that is not
// required under which j's estimated cost is below base.
func improvingFlip(cat *rules.Catalog, j *workload.Job, base float64) (rules.Flip, bool) {
	def := cat.DefaultConfig()
	for _, r := range cat.All() {
		f := rules.Flip{RuleID: r.ID, Enable: !def.Enabled(r.ID)}
		if r.Category == rules.Required {
			continue
		}
		if _, cost, err := optimizer.Estimate(j.Graph, def.WithFlip(f), j.CompileOptions(cat)); err == nil && cost < base {
			return f, true
		}
	}
	return rules.Flip{}, false
}

// flightRef is flightOne with every arm compiled by Optimize into a plan
// of its own, then run.
func flightRef(s *Service, req Request) Result {
	out := Result{Request: req}
	if o := classify(req.Job); o != Success {
		out.Outcome = o
		out.HoursUsed = 0.05
		return out
	}
	job := req.Job
	opts := job.CompileOptions(s.cfg.Catalog)
	baseRes, err := optimizer.Optimize(job.Graph, s.cfg.Catalog.DefaultConfig(), opts)
	if err != nil {
		out.Outcome, out.Err = Failure, err
		return out
	}
	treatRes := req.Compiled
	if treatRes == nil {
		if treatRes, err = optimizer.Optimize(job.Graph, req.Treatment, opts); err != nil {
			out.Outcome, out.Err, out.HoursUsed = Failure, err, 0.05
			return out
		}
	}
	seed := s.cfg.Seed + int64(job.Date)*1000003 + int64(len(job.ID))
	out.Baseline = exec.Run(baseRes.Plan, job.Truth, job.Stats, s.cfg.Cluster, seed)
	out.Treat = exec.Run(treatRes.Plan, job.Truth, job.Stats, s.cfg.Cluster, seed+1)
	if out.Baseline.LatencySec/3600 > perJobTimeoutHours || out.Treat.LatencySec/3600 > perJobTimeoutHours {
		out.Outcome, out.HoursUsed = Timeout, perJobTimeoutHours
		return out
	}
	out.Outcome = Success
	out.HoursUsed = (out.Baseline.LatencySec + out.Treat.LatencySec) / 3600
	if future, err := job.Template.Instantiate(job.Date+1, job.Seq); err == nil {
		fOpts := future.CompileOptions(s.cfg.Catalog)
		fBase, err1 := optimizer.Optimize(future.Graph, s.cfg.Catalog.DefaultConfig(), fOpts)
		fTreat, err2 := optimizer.Optimize(future.Graph, req.Treatment, fOpts)
		if err1 == nil && err2 == nil {
			out.FutureBaseline = exec.Run(fBase.Plan, future.Truth, future.Stats, s.cfg.Cluster, seed+77)
			out.FutureTreat = exec.Run(fTreat.Plan, future.Truth, future.Stats, s.cfg.Cluster, seed+78)
			out.HasFuture = true
		}
	}
	return out
}

// TestBorrowedFlightsMatchPublished holds every flight of one advisor
// day, each arm run inside its borrowed compilation, to flightRef, which
// runs published plans: the same Outcome, HoursUsed, Err, baseline,
// treatment and future metrics and HasFuture, in the same queue order, at
// GOMAXPROCS 1 and 4, with chunks of several flights running at once.
func TestBorrowedFlightsMatchPublished(t *testing.T) {
	cat := rules.NewCatalog()
	jobs := testJobs(t, 40)
	reqs := advisorDayRequests(t, jobs, cat)
	svc := New(Config{Catalog: cat, Seed: 3})
	ordered := slices.Clone(reqs)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].EstCost < ordered[j].EstCost })
	want := make([]Result, len(ordered))
	outcomes := make(map[Outcome]int)
	futures := 0
	for i, req := range ordered {
		want[i] = flightRef(svc, req)
		outcomes[want[i].Outcome]++
		if want[i].HasFuture {
			futures++
		}
	}
	t.Logf("%d flights: %v, %d with future arms", len(want), outcomes, futures)
	if outcomes[Success] == 0 || outcomes[Failure] == 0 || futures == 0 {
		t.Fatalf("%d successes, %d failures, %d with future arms; want each", outcomes[Success], outcomes[Failure], futures)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := svc.Run(reqs)
		runtime.GOMAXPROCS(prev)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d results, want %d", procs, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS=%d: flight %d (%s) differs from the published reference:\n got %+v\nwant %+v", procs, i, want[i].Request.Job.ID, got[i], want[i])
			}
		}
	}
}

// TestLookAheadMatchesLoneBuilds: Run, which builds the next-day
// instances of a day's flights in one batch before their future arms run,
// returns the Results — FutureBaseline, FutureTreat and HasFuture
// included — that the one-flight-at-a-time reference returns on a fresh
// generator, where each future arm's Instantiate builds its instance
// alone. The day has treatments that fail to compile and treatments
// already compiled; once with the budget as shipped, once with one that
// runs out. Both build the same instances.
func TestLookAheadMatchesLoneBuilds(t *testing.T) {
	cat := rules.NewCatalog()
	day := func() (*workload.Generator, []Request) {
		gen, err := workload.New(workload.Config{Seed: 21, NumTemplates: 40})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := gen.JobsForDay(3)
		if err != nil {
			t.Fatal(err)
		}
		return gen, advisorDayRequests(t, jobs, cat)
	}
	// lookups counts what run looks up in gen's instance memos.
	lookups := func(gen *workload.Generator, run func()) optimizer.CompileCacheStats {
		before := gen.CompileCacheStats()
		run()
		st := gen.CompileCacheStats()
		return optimizer.CompileCacheStats{Hits: st.Hits - before.Hits, Misses: st.Misses - before.Misses}
	}
	// The budget as shipped, then half the slot-hours its flights used.
	tight := 0.0
	for _, shipped := range []bool{true, false} {
		svc := New(Config{Catalog: cat, Seed: 3})
		if !shipped {
			svc.budget = tight
		}
		var got, want []Result
		batched, reqs := day()
		ranBatched := lookups(batched, func() { got = svc.Run(reqs) })
		lone, reqs := day()
		ranLone := lookups(lone, func() { want = sequentialRun(svc, reqs) })

		outcomes := countByOutcome(want)
		futures := 0
		for _, r := range want {
			if r.HasFuture {
				futures++
			}
			tight += r.HoursUsed / 2
		}
		t.Logf("budget %v: %v, %d with future arms", svc.budget, outcomes, futures)
		if futures == 0 || outcomes[Failure] == 0 || shipped != (outcomes[Skipped] == 0) {
			t.Fatalf("budget %v: %d with future arms, %d failures, %d skipped; want futures, failures, and skips only under the tight budget", svc.budget, futures, outcomes[Failure], outcomes[Skipped])
		}
		resultsEqual(t, want, got)
		if ranBatched != ranLone {
			t.Errorf("budget %v: Run counted instance lookups %+v, the reference %+v", svc.budget, ranBatched, ranLone)
		}
	}
}

// TestLookAheadAllocBudget gates what one Run over a day's requests on a
// fresh generator allocates to build its flights' next-day instances, per
// instance built: the Run's allocations less those of the same Run on a
// generator that already holds exactly the next-day instances the Run
// looks ahead to, built in one batch of those templates, so both Runs'
// future arms keep their rewrites in stores of one size. The Run builds
// its instances in one batch too, so the reading sits near
// workload.jobs_for_day, not workload.instance, which a flight that built
// its next occurrence alone would cost.
func TestLookAheadAllocBudget(t *testing.T) {
	budget.SkipRace(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cat := rules.NewCatalog()
	svc := New(Config{Catalog: cat, Seed: 1})
	day := func() (*workload.Generator, []Request) {
		gen, err := workload.New(workload.Config{Seed: 21, NumTemplates: 40})
		if err != nil {
			t.Fatal(err)
		}
		jobs, err := gen.JobsForDay(3)
		if err != nil {
			t.Fatal(err)
		}
		return gen, requestsFor(jobs, cat)
	}
	// No collection from the warm-up on: one would empty the pools it
	// warmed.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warmGen, warm := day()
	// The warm-up Run warms the pools every Run draws on, and its
	// successful flights name the templates every Run of the day looks
	// ahead to.
	index := map[*workload.Template]int{}
	for i, tpl := range warmGen.Templates() {
		index[tpl] = i
	}
	var ahead []int
	for _, r := range svc.Run(warm) {
		if r.Outcome == Success {
			ahead = append(ahead, index[r.Request.Job.Template])
		}
	}
	cold, coldReqs := day()
	held, heldReqs := day()
	heldAhead := make([]*workload.Template, len(ahead))
	for k, i := range ahead {
		heldAhead[k] = held.Templates()[i]
	}
	workload.Prefetch(4, heldAhead)
	mallocs := func(reqs []Request) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		svc.Run(reqs)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	budget.Gate(t, "flighting.look_ahead", func() float64 {
		without := mallocs(heldReqs)
		misses := cold.CompileCacheStats().Misses
		with := mallocs(coldReqs)
		built := cold.CompileCacheStats().Misses - misses
		if built == 0 {
			t.Fatal("no flight looked ahead; the gate lost its coverage")
		}
		if distinct := slices.Compact(slices.Sorted(slices.Values(ahead))); built != uint64(len(distinct)) {
			t.Fatalf("the Run built %d next-day instances, the held side %d", built, len(distinct))
		}
		t.Logf("%d next-day instances built: %d allocations, %d with every one held", built, with, without)
		return (float64(with) - float64(without)) / float64(built)
	})
}

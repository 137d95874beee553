package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// pipelineRig is the offline loop of the paper's Figure 1: a recurring
// workload, production runs under the installed hints, and the daily
// QO-Advisor pipeline uploading validated hints to the SIS store.
type pipelineRig struct {
	gen   *workload.Generator
	cat   *rules.Catalog
	store *sis.Store
	adv   *core.Advisor
	prod  *core.Production
}

func newAdvisor(cat *rules.Catalog, store *sis.Store, seed int64) *core.Advisor {
	return core.NewAdvisor(cat, store, core.Config{
		Seed:      seed,
		Flighting: flighting.Config{Catalog: cat, Cluster: exec.DefaultCluster(seed), Seed: seed + 5},
	})
}

// offlineSeed seeds the whole offline leg — templates, cluster noise,
// production runs, the advisor's exploration, flighting — whatever -seed
// is; -seed drives the served leg (its op stream and rewards) only. The
// offline leg's cost is heavy-tailed in its inputs: a template's script
// shape and table sizes, which flips exploration happens to try, which
// flights validate into hints (13 to 50 of them across three seeds).
// With templates drawn from -seed, allocs_per_job — exact for any one
// input — differed by 8% between seeds; with only the templates fixed,
// still by 4%. One fixed ten-day history makes the offline leg's counts
// repeat, which is what lets a 1% bound on allocs_per_job hold here too.
const offlineSeed = 20211101

// buildPipeline is pipeline_day's set-up: generate the templates
// (every script compiled once) and run day 0 in production, so compile
// caches and the telemetry view exist before day 1 is timed.
func buildPipeline(templates int) (*pipelineRig, error) {
	const seed = offlineSeed
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: templates})
	if err != nil {
		return nil, err
	}
	cat := rules.NewCatalog()
	store := sis.NewStore(cat)
	r := &pipelineRig{
		gen: gen, cat: cat, store: store,
		adv:  newAdvisor(cat, store, seed),
		prod: core.NewProduction(cat, store, exec.DefaultCluster(seed), seed+12),
	}
	jobs, err := gen.JobsForDay(0)
	if err != nil {
		return nil, err
	}
	if _, _, err := r.prod.RunDay(0, jobs); err != nil {
		return nil, err
	}
	return r, nil
}

// dayTiming is one pipeline day, call by call.
type dayTiming struct {
	jobs                         int
	jobsForDay, production, advi time.Duration
	report                       *core.DayReport
}

func (d dayTiming) wall() time.Duration { return d.jobsForDay + d.production + d.advi }

// runDay is one turn of the loop. Days 1–2 log uniformly at random (the
// paper's off-policy data collection), later days follow the learned
// policy.
func (r *pipelineRig) runDay(day int) (dayTiming, []*workload.Job, []workload.ViewRow, error) {
	var d dayTiming
	r.adv.CB.Uniform = day <= 2
	t := time.Now()
	jobs, err := r.gen.JobsForDay(day)
	if err != nil {
		return d, nil, nil, err
	}
	d.jobsForDay = time.Since(t)
	t = time.Now()
	_, view, err := r.prod.RunDay(day, jobs)
	if err != nil {
		return d, nil, nil, err
	}
	d.production = time.Since(t)
	t = time.Now()
	d.report, err = r.adv.RunDay(day, jobs, view)
	if err != nil {
		return d, nil, nil, err
	}
	d.advi = time.Since(t)
	d.jobs = len(jobs)
	return d, jobs, view, nil
}

// runPipeline runs pipeline_day: the offline leg (its goodput, CPU,
// allocations and heap are the workload's), then a served leg on what
// the offline leg produced (its rank and reward latencies are the
// workload's).
func runPipeline(ctx context.Context, sp *spec, o options) (*result, error) {
	sz := sizesFor(sp, o.seconds, o.traced, o.smoke)
	res := &result{workload: sp.name, seed: o.seed, traced: o.traced}
	chk := &checker{}

	t := time.Now()
	rig, err := buildPipeline(sz.templates)
	if err != nil {
		return nil, err
	}
	setupS := time.Since(t).Seconds()

	// Offline leg.
	refBefore := hostRef(sz.refIters)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	var days []dayTiming
	var lastJobs []*workload.Job
	var lastView []workload.ViewRow
	totalJobs := 0
	var rates []float64 // per day: job instances per second
	var legWall time.Duration
	for day := 1; day <= sz.days; day++ {
		d, jobs, view, err := rig.runDay(day)
		if err != nil {
			return nil, fmt.Errorf("pipeline day %d: %w", day, err)
		}
		rates = append(rates, float64(d.jobs)/d.wall().Seconds())
		days = append(days, d)
		lastJobs, lastView = jobs, view
		totalJobs += d.jobs
		legWall += d.wall()
		chk.ok(d.report.Validated <= d.report.FlightsRequested,
			"day %d: validated %d > flights requested %d", day, d.report.Validated, d.report.FlightsRequested)
	}
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	refAfter := hostRef(sz.refIters)
	res.notef("pipeline leg: %d job instances over %d days of %d templates in %.3fs, %.1f jobs/s over the whole leg; host reference loop %.3f ms before, %.3f ms after",
		totalJobs, sz.days, sz.templates, legWall.Seconds(), float64(totalJobs)/legWall.Seconds(), refBefore, refAfter)
	res.unstable = hostRefDrift(refBefore, refAfter) > 1.10
	heap := heapLive()
	res.attempted, res.failed = totalJobs, 0

	hist := rig.store.History()
	final := hist[len(hist)-1]
	var hintFile bytes.Buffer
	if err := sis.Serialize(&hintFile, final); err != nil {
		return nil, err
	}
	res.notef("sis_file_sha256 %s (%d hints, day %d)", sha(hintFile.Bytes()), len(final.Hints), final.Day)
	last := days[len(days)-1].report
	if !o.smoke {
		chk.ok(last.HintsUploaded > 0, "no hint survived validation after %d days", sz.days)
	}

	// Served leg: the SIS file rolled over HTTP into an async-WAL server
	// built on the pipeline's trained learner, driven with next-day jobs
	// drawn over the pipeline's own templates.
	served := *sp
	if served.banditFrom, err = trainedModel(rig.adv.CB.Service, o.seed); err != nil {
		return nil, err
	}
	served.hintFile = hintFile.Bytes()
	pop, err := rig.servedPopulation(sz.days+1, o.seed)
	if err != nil {
		return nil, err
	}
	sz.pop = len(pop)
	wl := &world{spec: &served, seed: o.seed, pop: pop}
	wl.generate(rngFor(o.seed, sp.name+"/served"), len(pop), sz.totalOps())
	if err := wl.deploy(ctx, sz); err != nil {
		wl.tearDown()
		return nil, err
	}
	defer wl.tearDown()
	sres, err := measureServing(ctx, wl, sz, o, 0)
	if err != nil {
		return nil, err
	}
	res.notes = append(res.notes, sres.notes...)
	res.fails = append(chk.fails, sres.fails...)
	res.failed += sres.failed
	res.attempted += sres.attempted
	res.unstable = res.unstable || sres.unstable

	// Goodput and CPU are the offline leg's; the four latencies the
	// served leg's.
	offline := map[string]float64{
		"load.goodput_jobs_per_s": median(rates),
		"load.cpu_ms_per_kjob":    ms(cpu) / float64(totalJobs) * 1e3,
	}
	if !o.traced {
		var m metrics
		m.add("setup_s", "s", setupS)
		m.add("allocs_per_job", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(totalJobs))
		m.add("heap_live_mb", "MB", heap)
		res.metrics = m
		for _, t := range sres.timings {
			if v, ok := offline[t.name]; ok {
				t.value = v
			}
			res.timings = append(res.timings, t)
		}
		return res, nil
	}

	// Traced: the served leg's layer values plus the offline layers.
	v := layerValues{}
	for _, m := range sres.metrics {
		v[m.name] = m.value
	}
	for name, x := range offline {
		v[name] = x
	}
	rig.offlineLayers(v, days, lastJobs, lastView)
	res.metrics = perLayer(v)
	return res, nil
}

// trainedModel is svc reloaded from its own snapshot less the open rank
// events (the "ev" lines). The pipeline's learner leaves the offline leg
// holding decisions whose recompilation failed and that no reward will
// ever close; the served leg goes into service with the trained weights
// and an empty event log, so crash recovery can be held to byte identity.
func trainedModel(svc *bandit.Service, seed int64) (*bandit.Service, error) {
	var snap, model bytes.Buffer
	if err := svc.Save(&snap); err != nil {
		return nil, err
	}
	for _, line := range bytes.SplitAfter(snap.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("ev ")) {
			model.Write(line)
		}
	}
	return bandit.Load(&model, seed)
}

// servedPopulation turns the pipeline's templates into the serving
// load's population: one entry per steerable template of the given day,
// with the template hash, span and input-stream features the compiler
// would send.
func (r *pipelineRig) servedPopulation(day int, seed int64) ([]tmpl, error) {
	jobs, err := r.gen.JobsForDay(day)
	if err != nil {
		return nil, err
	}
	_, view, err := r.prod.RunDay(day, jobs)
	if err != nil {
		return nil, err
	}
	feats, err := r.adv.FeatureGen.Run(jobs, view)
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, "pipeline_day/rewards")
	seen := make(map[uint64]bool)
	var pop []tmpl
	for _, f := range feats {
		h := f.Job.Graph.TemplateHash()
		if seen[h] || f.Span.IsEmpty() {
			continue
		}
		seen[h] = true
		pop = append(pop, tmpl{
			hash: api.TemplateHash(h), span: f.Span.Bits(),
			rows: f.RowCount, bytes: f.BytesRead, reward: 0.5 + rng.Float64(),
		})
	}
	if len(pop) < 2 {
		return nil, fmt.Errorf("pipeline produced %d steerable templates; the served leg needs at least 2", len(pop))
	}
	return pop, nil
}

// offlineLayers fills the pipeline-side per-layer values: the body's
// own call timings, plus probes that time one layer at a time on the
// last day's inputs.
func (r *pipelineRig) offlineLayers(v layerValues, days []dayTiming, jobs []*workload.Job, view []workload.ViewRow) {
	const seed = offlineSeed
	var jfd, prod, adv []float64
	var flights, successes int
	for i, d := range days {
		jfd = append(jfd, d.jobsForDay.Seconds())
		prod = append(prod, d.production.Seconds())
		if i > 0 {
			adv = append(adv, d.advi.Seconds())
		}
		flights += d.report.FlightsRequested
		successes += d.report.FlightOutcomes[flighting.Success]
	}
	v["workload.jobs_for_day_s"] = median(jfd)
	v["core.production_day_s"] = median(prod)
	v["core.advisor_day1_s"] = days[0].advi.Seconds()
	v["core.advisor_day_s"] = median(adv)
	if flights > 0 {
		v["flighting.success_ratio"] = float64(successes) / float64(flights)
	}
	last := days[len(days)-1].report
	v["core.hints_uploaded"] = float64(last.HintsUploaded)
	v["core.validated"] = float64(last.Validated)
	if s := r.gen.CompileCacheStats(); s.Hits+s.Misses > 0 {
		v["scope.cache_hit_ratio"] = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	if s := r.adv.CompileCacheStats(); s.Hits+s.Misses > 0 {
		v["optimizer.cache_hit_ratio"] = float64(s.Hits) / float64(s.Hits+s.Misses)
	}

	// scope: every template's script compiled uncached.
	var compile acc
	for _, t := range r.gen.Templates() {
		src := strings.ReplaceAll(t.ScriptPattern, "@DATE@", "20211101")
		for _, lit := range t.Literals {
			src = strings.ReplaceAll(src, lit, "100")
		}
		t0 := time.Now()
		if _, err := scope.CompileScript(src); err == nil {
			compile.add(time.Since(t0), 1)
		}
	}
	v["scope.compile_us_per_script"] = compile.perCall(1e3)

	// optimizer: the default configuration, uncached, on the last day's jobs.
	var opt acc
	def := r.cat.DefaultConfig()
	for _, j := range jobs {
		t0 := time.Now()
		if _, err := optimizer.Optimize(j.Graph, def, optimizer.Options{Catalog: r.cat, Stats: j.Stats, Tokens: j.Tokens}); err == nil {
			opt.add(time.Since(t0), 1)
		}
	}
	v["optimizer.optimize_us_per_job"] = opt.perCall(1e3)

	// core + flighting: a cold probe advisor taken through one day's
	// tasks one at a time.
	probe := newAdvisor(r.cat, sis.NewStore(r.cat), seed)
	t0 := time.Now()
	feats, err := probe.FeatureGen.Run(jobs, view)
	if err != nil {
		return
	}
	v["core.featuregen_s_per_day"] = time.Since(t0).Seconds()
	t1 := time.Now()
	recs := core.RecommendWith(probe.CB, r.cat, feats, core.RecommendOptions{})
	v["core.recommend_s_per_day"] = time.Since(t1).Seconds()
	var reqs []flighting.Request
	for _, rec := range core.RepresentativePerTemplate(core.Improved(recs), seed) {
		reqs = append(reqs, flighting.Request{
			Job: rec.Features.Job, Treatment: r.cat.DefaultConfig().WithFlip(rec.Flip),
			EstCost: rec.Recompiled.EstCost, Flip: rec.Flip,
		})
	}
	t2 := time.Now()
	probe.Flight.Run(reqs)
	v["flighting.run_s_per_day"] = time.Since(t2).Seconds()
}

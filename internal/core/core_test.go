package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

func testWorkload(t *testing.T, n int) *workload.Generator {
	t.Helper()
	gen, err := workload.New(workload.Config{Seed: 11, NumTemplates: n, MaxDailyInstances: 2})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// runProductionDay compiles and runs one day's jobs and returns jobs+view.
func runProductionDay(t *testing.T, gen *workload.Generator, store *sis.Store, cat *rules.Catalog, date int) ([]*workload.Job, []workload.ViewRow) {
	t.Helper()
	jobs, err := gen.JobsForDay(date)
	if err != nil {
		t.Fatal(err)
	}
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 5)
	_, view, err := prod.RunDay(date, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, view
}

func TestAggregate(t *testing.T) {
	rows := []workload.ViewRow{
		{JobID: "j", NormalizedJobName: "n", Latency: 10, EstimatedCost: 100, Vertices: 5,
			EstimatedCard: 1000, BytesRead: 1e6, RowCount: 500, AvgRowLength: 20,
			MaxMemory: 1e9, AvgMemory: 5e8, PNHours: 2},
		{JobID: "j", NormalizedJobName: "n", Latency: 10, EstimatedCost: 100, Vertices: 5,
			EstimatedCard: 2000, BytesRead: 2e6, RowCount: 700, AvgRowLength: 40,
			MaxMemory: 1e9, AvgMemory: 5e8, PNHours: 2},
	}
	f, err := Aggregate(rows)
	if err != nil {
		t.Fatal(err)
	}
	// Job-level features: min.
	if f.Latency != 10 || f.EstCost != 100 || f.Vertices != 5 || f.PNHours != 2 {
		t.Errorf("job-level aggregation wrong: %+v", f)
	}
	// Query-level: sum.
	if f.EstCardinality != 3000 || f.BytesRead != 3e6 || f.RowCount != 1200 {
		t.Errorf("sum aggregation wrong: %+v", f)
	}
	// Avg row length: avg.
	if f.AvgRowLength != 30 {
		t.Errorf("avg aggregation wrong: %v", f.AvgRowLength)
	}
}

func TestAggregateEmptyFails(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Error("expected error")
	}
}

func TestFeatureGenProducesSpans(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 12)
	store := sis.NewStore(cat)
	jobs, view := runProductionDay(t, gen, store, cat, 1)

	fg := NewFeatureGen(cat)
	feats, err := fg.Run(jobs, view)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) == 0 {
		t.Fatal("no features produced")
	}
	for _, f := range feats {
		if f.Span.IsEmpty() {
			t.Error("empty-span jobs must be dropped")
		}
		if f.EstCost <= 0 {
			t.Errorf("bad est cost for %s", f.Job.ID)
		}
		// Spans contain no required rules.
		for _, id := range f.Span.Bits() {
			if cat.Rule(id).Category == rules.Required {
				t.Errorf("required rule %d in span", id)
			}
		}
	}
}

func TestSpanCacheSharedAcrossInstances(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 6)
	store := sis.NewStore(cat)
	jobs, view := runProductionDay(t, gen, store, cat, 1)
	fg := NewFeatureGen(cat)
	if _, err := fg.Run(jobs, view); err != nil {
		t.Fatal(err)
	}
	if len(fg.spanCache) > len(gen.Templates()) {
		t.Errorf("span cache has %d entries for %d templates", len(fg.spanCache), len(gen.Templates()))
	}
}

// TestActionsForIncludesNoopAndAllSpanFlips: ActionsFor is the leaf's
// action set plus the flip each action stands for.
func TestActionsForIncludesNoopAndAllSpanFlips(t *testing.T) {
	cat := rules.NewCatalog()
	var f JobFeatures
	f.Span.Set(20)
	f.Span.Set(100)
	actions, flips := ActionsFor(cat, &f)
	if len(actions) != 3 || len(flips) != 3 {
		t.Fatalf("actions = %d, want 3 (noop + 2 flips)", len(actions))
	}
	if !reflect.DeepEqual(actions, featurize.Actions(cat, f.Span)) {
		t.Errorf("ActionsFor = %+v, featurize.Actions = %+v", actions, featurize.Actions(cat, f.Span))
	}
	if actions[0].ID != "noop" {
		t.Error("first action must be noop")
	}
	// Flip direction: off-by-default rules turn on, others turn off.
	for i, flip := range flips[1:] {
		if actions[i+1].ID != flip.String() {
			t.Errorf("action %d is named %q, its flip is %s", i+1, actions[i+1].ID, flip)
		}
		r := cat.Rule(flip.RuleID)
		wantEnable := r.Category == rules.OffByDefault
		if flip.Enable != wantEnable {
			t.Errorf("flip %d: enable=%v for category %v", i, flip.Enable, r.Category)
		}
	}
}

func TestRecommendAndLearn(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 10)
	store := sis.NewStore(cat)
	jobs, view := runProductionDay(t, gen, store, cat, 1)
	fg := NewFeatureGen(cat)
	feats, err := fg.Run(jobs, view)
	if err != nil {
		t.Fatal(err)
	}
	cb := NewCBRecommender(cat, 3)
	recs := Recommend(cb, cat, feats)
	if len(recs) != len(feats) {
		t.Fatalf("recs = %d, want %d", len(recs), len(feats))
	}
	for _, r := range recs {
		if r.NoOp {
			if r.Reward != 1 {
				t.Errorf("noop reward = %v, want 1", r.Reward)
			}
			continue
		}
		if r.CompileFailed {
			if r.Reward != 0 {
				t.Errorf("failed recompile reward = %v, want 0", r.Reward)
			}
			continue
		}
		if r.Reward <= 0 || r.Reward > RewardClip {
			t.Errorf("reward out of range: %v", r.Reward)
		}
	}
	if n := cb.Train(); n == 0 {
		t.Error("training should consume rewarded events")
	}
}

func TestRandomRecommenderPicksFromSpan(t *testing.T) {
	cat := rules.NewCatalog()
	rr := NewRandomRecommender(cat, 1)
	var f JobFeatures
	f.Span.Set(30)
	f.Span.Set(31)
	for i := 0; i < 20; i++ {
		flip, noop, _ := rr.Recommend(&f)
		if noop {
			t.Fatal("random recommender should always flip")
		}
		if flip.RuleID != 30 && flip.RuleID != 31 {
			t.Fatalf("flip outside span: %v", flip)
		}
	}
	// Empty span: noop.
	var empty JobFeatures
	if _, noop, _ := rr.Recommend(&empty); !noop {
		t.Error("empty span must be noop")
	}
}

func TestImprovedFilters(t *testing.T) {
	recs := []*Recommendation{
		{NoOp: true},
		{CompileFailed: true, CostDelta: 1},
		{CostDelta: -0.2},
		{CostDelta: 0.3},
		{CostDelta: 0},
	}
	got := Improved(recs)
	if len(got) != 1 || got[0].CostDelta != -0.2 {
		t.Errorf("Improved = %+v", got)
	}
}

func TestRepresentativePerTemplate(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 5)
	jobs, err := gen.JobsForDay(1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Recommendation
	for _, j := range jobs {
		f := &JobFeatures{Job: j}
		recs = append(recs, &Recommendation{Features: f, CostDelta: -0.1})
	}
	reps := RepresentativePerTemplate(recs, 7)
	seen := make(map[uint64]bool)
	for _, r := range reps {
		h := r.Features.Job.Template.Hash
		if seen[h] {
			t.Error("duplicate template among representatives")
		}
		seen[h] = true
	}
	// Deterministic for a fixed seed.
	reps2 := RepresentativePerTemplate(recs, 7)
	for i := range reps {
		if reps[i] != reps2[i] {
			t.Error("representative selection not deterministic")
		}
	}
	_ = cat
}

func TestValidatorLifecycle(t *testing.T) {
	v := new(Validator)
	if v.Ready() {
		t.Fatal("untrained validator should not be ready")
	}
	if err := v.Train(); err == nil {
		t.Fatal("training on empty dataset should fail")
	}
	// Synthetic relationship: the future PN delta tracks the observed
	// one, stabilized by the I/O deltas.
	for day := 0; day < 14; day++ {
		for i := 0; i < 5; i++ {
			read := float64(i-2) * 0.1
			written := float64(day%5-2) * 0.1
			pnObs := 0.5*read + 0.3*written
			v.Observe(day, pnObs, read, written, 0.5*pnObs+0.3*read+0.2*written)
		}
	}
	if v.SampleCount() != 70 {
		t.Fatalf("samples = %d", v.SampleCount())
	}
	if err := v.Train(); err != nil {
		t.Fatal(err)
	}
	if !v.Ready() {
		t.Fatal("trained validator should be ready")
	}
	// Strongly negative observations must be accepted, positive rejected.
	if !v.Accept(-0.4, -0.5, -0.5) {
		t.Error("big observed reduction should pass validation")
	}
	if v.Accept(0.3, 0.3, 0.3) {
		t.Error("observed increase should fail validation")
	}
	if v.Model() == nil {
		t.Error("model should be exposed")
	}
}

func TestDeltas(t *testing.T) {
	base := exec.Metrics{DataRead: 100, DataWritten: 50, PNHours: 10}
	treat := exec.Metrics{DataRead: 80, DataWritten: 60, PNHours: 9}
	r, w, p := Deltas(base, treat)
	if r < -0.2001 || r > -0.1999 {
		t.Errorf("read delta = %v", r)
	}
	if w < 0.1999 || w > 0.2001 {
		t.Errorf("written delta = %v", w)
	}
	if p < -0.1001 || p > -0.0999 {
		t.Errorf("pn delta = %v", p)
	}
}

func TestProductionAppliesHints(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 5)
	store := sis.NewStore(cat)
	jobs, err := gen.JobsForDay(2)
	if err != nil {
		t.Fatal(err)
	}
	tpl := jobs[0].Template
	// Install a hint for the first template, picking a rule whose flip
	// actually compiles (flips can hit deterministic "unsupported
	// combination" rejections).
	var onRule rules.Rule
	found := false
	for _, cand := range cat.Rules(rules.OnByDefault) {
		cfg := cat.DefaultConfig().WithFlip(rules.Flip{RuleID: cand.ID, Enable: false})
		if _, err := optimizer.Optimize(jobs[0].Graph, cfg, optimizer.Options{Catalog: cat, Stats: jobs[0].Stats}); err == nil {
			onRule = cand
			found = true
			break
		}
	}
	if !found {
		t.Skip("no compilable flip for this template")
	}
	err = store.Upload(sis.File{Day: 1, Hints: []sis.Hint{{
		TemplateHash: tpl.Hash, TemplateID: tpl.ID,
		Flip: rules.Flip{RuleID: onRule.ID, Enable: false}, Day: 1,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 9)
	runs, view, err := prod.RunDay(2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(view) == 0 {
		t.Fatal("no view rows")
	}
	hinted := 0
	for _, r := range runs {
		if r.Job.Template == tpl && r.Hinted {
			hinted++
			if r.Flip.RuleID != onRule.ID {
				t.Errorf("wrong flip applied: %v", r.Flip)
			}
		}
		if r.Job.Template != tpl && r.Hinted {
			t.Error("hint leaked to other template")
		}
	}
	if hinted == 0 {
		t.Error("hint was not applied to the target template")
	}
}

// runJobRef is runJob as a job-by-job loop without the instance's rewrite
// memo runs it: every compilation rewrites the job's graph afresh.
func runJobRef(p *Production, job *workload.Job, runSeed int64) (JobRun, error) {
	def := p.Catalog.DefaultConfig()
	cfg := p.Store.ConfigFor(job.Template.Hash, def)
	hinted := !cfg.Equal(def.Bitset)
	opts := optimizer.Options{Catalog: p.Catalog, Stats: job.Stats, Tokens: job.Tokens}
	res, err := optimizer.Optimize(job.Graph, cfg, opts)
	if err != nil && hinted {
		res, err = optimizer.Optimize(job.Graph, def, opts)
		hinted = false
	}
	if err != nil {
		return JobRun{}, err
	}
	run := JobRun{Job: job, Result: res, Hinted: hinted}
	if hinted {
		h, _ := p.Store.Lookup(job.Template.Hash)
		run.Flip = h.Flip
	}
	run.Metrics = exec.Run(res.Plan, job.Truth, job.Stats, p.Cluster, runSeed)
	return run, nil
}

// TestProductionRunDayMatchesSequential holds the fanned-out RunDay to the
// job-by-job loop it replaced: same runs, same view, in job order, at any
// GOMAXPROCS, with a hint steering some of the day's compilations. RunDay
// compiles a template's recurrences from their instance's one memoized
// rewrite where the reference rewrites per job, so this is also what holds
// the shared rewrite to a fresh one.
func TestProductionRunDayMatchesSequential(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 12)
	store := sis.NewStore(cat)
	jobs, err := gen.JobsForDay(2)
	if err != nil {
		t.Fatal(err)
	}
	// Hint every other template with its first flip that compiles, so
	// hinted and unhinted compilations both occur.
	var hints []sis.Hint
	for i, tpl := range gen.Templates() {
		if i%2 == 1 {
			continue
		}
		j, err := tpl.Instantiate(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, cand := range cat.Rules(rules.OnByDefault)[:6] {
			flip := rules.Flip{RuleID: cand.ID, Enable: false}
			if _, err := optimizer.Optimize(j.Graph, cat.DefaultConfig().WithFlip(flip), optimizer.Options{Catalog: cat, Stats: j.Stats}); err == nil {
				hints = append(hints, sis.Hint{TemplateHash: tpl.Hash, TemplateID: tpl.ID, Flip: flip, Day: 1})
				break
			}
		}
	}
	if len(hints) == 0 {
		t.Fatal("no compilable hint for any template")
	}
	if err := store.Upload(sis.File{Day: 1, Hints: hints}); err != nil {
		t.Fatal(err)
	}
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 9)

	var wantRuns []JobRun
	var wantView []workload.ViewRow
	for i, job := range jobs {
		run, err := runJobRef(prod, job, prod.Seed+2*100003+int64(i)*7)
		if err != nil {
			continue
		}
		wantRuns = append(wantRuns, run)
		wantView = workload.AppendViewRows(wantView, job, run.Result, run.Metrics)
	}
	hinted := 0
	for _, r := range wantRuns {
		if r.Hinted {
			hinted++
		}
	}
	if hinted == 0 || hinted == len(wantRuns) {
		t.Fatalf("%d of %d runs hinted; want a mix", hinted, len(wantRuns))
	}

	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		runs, view, err := prod.RunDay(2, jobs)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(runs, wantRuns) {
			t.Errorf("GOMAXPROCS=%d: runs differ from the sequential order", procs)
		}
		if !reflect.DeepEqual(view, wantView) {
			t.Errorf("GOMAXPROCS=%d: view differs from the sequential order", procs)
		}
		shared := 0
		for i := 1; i < len(runs); i++ {
			if runs[i].Job.Graph == runs[i-1].Job.Graph && runs[i].Result.Logical == runs[i-1].Result.Logical {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("GOMAXPROCS=%d: no two recurrences share a rewritten graph; the instance's rewrite memo is not in use", procs)
		}
	}
}

func TestAdvisorEndToEnd(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 15)
	store := sis.NewStore(cat)
	adv := NewAdvisor(cat, store, Config{
		Seed:                 1,
		MinValidationSamples: 5,
		Flighting:            flighting.Config{Catalog: cat, Seed: 2},
	})
	adv.CB.Uniform = true

	prod := NewProduction(cat, store, exec.DefaultCluster(1), 3)
	var lastReport *DayReport
	for day := 1; day <= 4; day++ {
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := adv.RunDay(day, jobs, view)
		if err != nil {
			t.Fatal(err)
		}
		lastReport = rep
		if rep.JobsInView == 0 {
			t.Fatal("no jobs in view")
		}
		if rep.Recommendations != rep.JobsWithSpan {
			t.Errorf("day %d: recommendations %d != jobs with span %d",
				day, rep.Recommendations, rep.JobsWithSpan)
		}
		total := rep.NoOps + rep.LowerCost + rep.EqualCost + rep.HigherCost + rep.CompileFails
		if total != rep.Recommendations {
			t.Errorf("day %d: outcome counts %d != recommendations %d", day, total, rep.Recommendations)
		}
	}
	if lastReport.ValidationSamples == 0 {
		t.Error("validator gathered no samples over 4 days")
	}
	if store.Version() != 4 {
		t.Errorf("SIS versions = %d, want 4 (one per day)", store.Version())
	}
}

// TestAdvisorKeepsNoOpenEvents: after each Advisor.RunDay the pipeline's
// uncapped learner holds no open decision — Train released every
// rewarded one and Recommend forgot every rank whose flip failed
// recompilation — while its log still counts a slot per decision, and
// its snapshot carries weights and no "ev" line.
func TestAdvisorKeepsNoOpenEvents(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 15)
	store := sis.NewStore(cat)
	adv := NewAdvisor(cat, store, Config{Seed: 1, MinValidationSamples: 5, Flighting: flighting.Config{Catalog: cat, Seed: 2}})
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 3)
	fails, recs := 0, 0
	for day := 1; day <= 4; day++ {
		adv.CB.Uniform = day <= 2
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := adv.RunDay(day, jobs, view)
		if err != nil {
			t.Fatal(err)
		}
		fails += rep.CompileFails
		recs += rep.Recommendations
		if evs := adv.CB.Service.Events(); len(evs) != 0 {
			t.Fatalf("day %d (%d failed recompilations): %d events still open, first %+v", day, rep.CompileFails, len(evs), *evs[0])
		}
		if got := adv.CB.Service.LogSize(); got != recs {
			t.Errorf("day %d: LogSize = %d, want a slot for each of %d recommendations", day, got, recs)
		}
	}
	if fails == 0 {
		t.Fatal("no recompilation failed in 4 days: the test no longer covers Forget")
	}
	var snap bytes.Buffer
	if err := adv.CB.Service.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap.Bytes(), []byte("\nev ")) || bytes.Count(snap.Bytes(), []byte("\n")) < 2 {
		t.Errorf("the trained learner's snapshot holds an ev line or no weight:\n%.300s", snap.Bytes())
	}
}

// TestParallelRunDayDeterministic is the parallelism contract: running
// the full pipeline at GOMAXPROCS 4 must produce byte-identical
// DayReports and SIS uploads to the run at GOMAXPROCS 1, where every
// worker pool runs strictly sequentially in index order, for every
// simulated day. Run under -race this also exercises the instance memo,
// the rewrite memos and bandit locking.
func TestParallelRunDayDeterministic(t *testing.T) {
	type dayOut struct {
		Report *DayReport
		Hints  []sis.Hint
	}
	run := func(procs int) []dayOut {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cat := rules.NewCatalog()
		gen, err := workload.New(workload.Config{Seed: 11, NumTemplates: 15, MaxDailyInstances: 2})
		if err != nil {
			t.Fatal(err)
		}
		store := sis.NewStore(cat)
		adv := NewAdvisor(cat, store, Config{
			Seed:                 1,
			MinValidationSamples: 5,
			Flighting:            flighting.Config{Catalog: cat, Seed: 2},
		})
		prod := NewProduction(cat, store, exec.DefaultCluster(1), 3)
		var out []dayOut
		for day := 1; day <= 3; day++ {
			jobs, err := gen.JobsForDay(day)
			if err != nil {
				t.Fatal(err)
			}
			_, view, err := prod.RunDay(day, jobs)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := adv.RunDay(day, jobs, view)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, dayOut{Report: rep, Hints: adv.Store.Current()})
		}
		return out
	}

	seq := run(1)
	par := run(4)
	for i := range seq {
		sj, err := json.Marshal(seq[i])
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(par[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sj, pj) {
			t.Errorf("day %d diverged between sequential and parallel runs:\nseq: %s\npar: %s", i+1, sj, pj)
		}
	}
}

func TestAdvisorHintsSurviveAcrossDays(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 12)
	store := sis.NewStore(cat)
	adv := NewAdvisor(cat, store, Config{
		Seed:                 7,
		MinValidationSamples: 3,
		Flighting:            flighting.Config{Catalog: cat, Seed: 2},
	})
	prod := NewProduction(cat, store, exec.DefaultCluster(2), 3)
	maxHints := 0
	for day := 1; day <= 6; day++ {
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := adv.RunDay(day, jobs, view)
		if err != nil {
			t.Fatal(err)
		}
		if rep.HintsUploaded < maxHints {
			// Hints merge with previous versions, so the count cannot
			// shrink in this setup.
			t.Errorf("day %d: hints shrank from %d to %d", day, maxHints, rep.HintsUploaded)
		}
		if rep.HintsUploaded > maxHints {
			maxHints = rep.HintsUploaded
		}
	}
}

// TestRunDaysRewriteEachInstanceConfigOnce: production and the pipeline
// compile a day's jobs through their instance's one rewrite memo, so over
// Production.RunDay then Advisor.RunDay each (instance, configuration) is
// rewritten at most once — less when a rewrite under another
// configuration certifies it — and the pipeline reuses the rewrites
// production made.
func TestRunDaysRewriteEachInstanceConfigOnce(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 12)
	store := sis.NewStore(cat)
	adv := NewAdvisor(cat, store, Config{
		Seed:                 1,
		MinValidationSamples: 5,
		Flighting:            flighting.Config{Catalog: cat, Seed: 2},
	})
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 3)
	certified := false
	for day := 1; day <= 3; day++ {
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		memos := make(map[*optimizer.CompileCache]bool)
		for _, j := range jobs {
			memos[j.CompileOptions(cat).Cache] = true
		}
		hits := func() (n uint64) {
			for m := range memos {
				n += m.Stats().Hits
			}
			return n
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for m := range memos {
			if m.Stats().Size == 0 {
				t.Fatalf("day %d: production compiled an instance without its memo", day)
			}
		}
		prodHits := hits()
		if _, err := adv.RunDay(day, jobs, view); err != nil {
			t.Fatal(err)
		}
		if hits() == prodHits {
			t.Errorf("day %d: the pipeline reused none of production's rewrites", day)
		}
		for m := range memos {
			st := m.Stats()
			if st.Misses > uint64(st.Size) {
				t.Errorf("day %d: an instance rewrote %d times for %d configurations", day, st.Misses, st.Size)
			}
			certified = certified || st.Misses < uint64(st.Size)
		}
	}
	if !certified {
		t.Error("no instance reused a rewrite under another configuration")
	}
}

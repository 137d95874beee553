package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
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

// representativeRef is RepresentativePerTemplate as it was when it grouped
// the recommendations in a map of slices, one per template: the reference
// the one-sorted-copy version is held to.
func representativeRef(recs []*Recommendation, seed int64) []*Recommendation {
	byTemplate := make(map[uint64][]*Recommendation)
	var order []uint64
	for _, r := range recs {
		key := r.Features.Job.Template.Hash
		if _, ok := byTemplate[key]; !ok {
			order = append(order, key)
		}
		byTemplate[key] = append(byTemplate[key], r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Recommendation, 0, len(order))
	for _, key := range order {
		group := byTemplate[key]
		out = append(out, group[rng.Intn(len(group))])
	}
	return out
}

// TestRepresentativePerTemplateMatchesReference: on a day of 40 templates,
// its recommendations in several shuffled orders and under several seeds,
// RepresentativePerTemplate picks the reference's recommendations in the
// reference's order, and leaves its input as it was.
func TestRepresentativePerTemplateMatchesReference(t *testing.T) {
	gen := testWorkload(t, 40)
	jobs, err := gen.JobsForDay(1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Recommendation
	for _, j := range jobs {
		recs = append(recs, &Recommendation{Features: &JobFeatures{Job: j}})
	}
	shuffle := rand.New(rand.NewSource(3))
	for round := 0; round < 8; round++ {
		shuffle.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		in := slices.Clone(recs)
		for _, seed := range []int64{1, 7, 20211101 + int64(round)} {
			got, want := RepresentativePerTemplate(recs, seed), representativeRef(recs, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d seed %d: picked %d representatives, not the reference's %d in its order", round, seed, len(got), len(want))
			}
			if !slices.Equal(recs, in) {
				t.Fatalf("round %d seed %d: the input was reordered", round, seed)
			}
		}
	}
}

func TestValidatorLifecycle(t *testing.T) {
	v := new(Validator)
	if v.model != nil {
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
	if v.model == nil {
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

// runJobRef is RunDay's run of one job as a job-by-job loop without the
// instance's rewrite memo: every compilation rewrites the job's graph
// afresh and publishes its plan, which it returns with the run for the
// job's view rows.
func runJobRef(p *Production, job *workload.Job, runSeed int64) (JobRun, *optimizer.Result, error) {
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
		return JobRun{}, nil, err
	}
	run := JobRun{Job: job, Logical: res.Logical, Signature: res.Signature, EstCost: res.EstCost, Hinted: hinted}
	if hinted {
		h, _ := p.Store.Lookup(job.Template.Hash)
		run.Flip = h.Flip
	}
	run.Metrics = exec.Run(res.Plan, job.Truth, job.Stats, p.Cluster, runSeed)
	return run, res, nil
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
		run, res, err := runJobRef(prod, job, prod.Seed+2*100003+int64(i)*7)
		if err != nil {
			continue
		}
		wantRuns = append(wantRuns, run)
		wantView = workload.AppendViewRows(wantView, job, res, run.Metrics)
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
			if runs[i].Job.Graph == runs[i-1].Job.Graph && runs[i].Logical == runs[i-1].Logical {
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
// recompilation — so its uncapped log keeps no slot either, and its
// snapshot carries weights and no "ev" line.
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
		if got := adv.CB.Service.LogSize(); got != 0 {
			t.Errorf("day %d: LogSize = %d after %d recommendations, want 0: every decision is closed", day, got, recs)
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
		Report  *DayReport
		Uploads []sis.File
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
			out = append(out, dayOut{Report: rep, Uploads: adv.Store.History()})
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

// TestAdvisorMergesOutOfBandUpload: the active set a day's merge starts
// from is the store's newest version, whoever uploaded it. A store seeded
// out of band before the pipeline's first validated hints keeps its
// hints in that day's upload, and the pipeline's new hint replaces the
// seeded one on the template both name. Production runs against a store
// of its own, so the seeding changes nothing but the merge.
func TestAdvisorMergesOutOfBandUpload(t *testing.T) {
	cat := rules.NewCatalog()
	// runDays runs a fresh advisor through the given days, calling seed
	// (if set) before the last one, and returns its store.
	runDays := func(days int, seed func(*sis.Store)) *sis.Store {
		gen, err := workload.New(workload.Config{Seed: 42, NumTemplates: 24, MaxDailyInstances: 2})
		if err != nil {
			t.Fatal(err)
		}
		cluster := exec.DefaultCluster(42)
		store := sis.NewStore(cat)
		adv := NewAdvisor(cat, store, Config{
			Seed:      42,
			Flighting: flighting.Config{Catalog: cat, Cluster: cluster, Seed: 47},
		})
		prod := NewProduction(cat, sis.NewStore(cat), cluster, 51)
		for day := 1; day <= days; day++ {
			adv.CB.Uniform = day <= 2
			jobs, err := gen.JobsForDay(day)
			if err != nil {
				t.Fatal(err)
			}
			_, view, err := prod.RunDay(day, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if day == days && seed != nil {
				seed(store)
			}
			if _, err := adv.RunDay(day, jobs, view); err != nil {
				t.Fatal(err)
			}
		}
		return store
	}

	// The day the pipeline first uploads hints, all of them fresh.
	ref := runDays(8, nil)
	first := 0
	for i, f := range ref.History() {
		if len(f.Hints) > 0 {
			first = i + 1
			break
		}
	}
	if first == 0 {
		t.Fatal("the pipeline validated no hint in 8 days")
	}
	fresh := ref.History()[first-1].Hints

	other := rules.Flip{RuleID: 32, Enable: !fresh[0].Flip.Enable}
	if fresh[0].Flip.RuleID == 32 {
		other.RuleID = 33
	}
	clash := sis.Hint{TemplateHash: fresh[0].TemplateHash, TemplateID: fresh[0].TemplateID, Flip: other, Day: first - 1}
	foreign := sis.Hint{TemplateHash: 0xfeedface, TemplateID: "seeded", Flip: other, Day: first - 1}
	store := runDays(first, func(s *sis.Store) {
		if err := s.Upload(sis.File{Day: first - 1, Hints: []sis.Hint{clash, foreign}}); err != nil {
			t.Fatal(err)
		}
	})
	hist := store.History()
	got := hist[len(hist)-1].Hints
	want := append([]sis.Hint{fresh[0], foreign}, fresh[1:]...)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("day %d upload after an out-of-band seed = %+v, want %+v", first, got, want)
	}
}

// TestRunDaysRewriteEachInstanceConfigOnce: production and the pipeline
// compile a day's jobs through their instance's one rewrite memo, so over
// Production.RunDay then Advisor.RunDay each (instance, configuration) is
// rewritten at most once — less when a rewrite under another
// configuration certifies it — and the pipeline reuses the rewrites
// production made. After the day, compiling each job again under the
// configuration production ran it under, and under that configuration
// with two tuning rules flipped (rules no rewrite asks about, in a
// configuration no stage compiles), must rewrite nothing and reuse
// production's rewritten graph.
func TestRunDaysRewriteEachInstanceConfigOnce(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	tuning := []rules.Flip{
		cat.FlipFor(cat.OfKind(rules.KindTunePartitionCount)[0].ID),
		cat.FlipFor(cat.OfKind(rules.KindTuneStageFusion)[0].ID),
	}
	gen := testWorkload(t, 12)
	store := sis.NewStore(cat)
	adv := NewAdvisor(cat, store, Config{
		Seed:                 1,
		MinValidationSamples: 5,
		Flighting:            flighting.Config{Catalog: cat, Seed: 2},
	})
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 3)
	for day := 1; day <= 3; day++ {
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			t.Fatal(err)
		}
		memos := make(map[*optimizer.CompileCache]bool)
		for _, j := range jobs {
			memos[j.CompileOptions(cat).Cache] = true
		}
		total := func() (st optimizer.CompileCacheStats) {
			for m := range memos {
				s := m.Stats()
				st.Hits += s.Hits
				st.Misses += s.Misses
			}
			return st
		}
		runs, view, err := prod.RunDay(day, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for m := range memos {
			if st := m.Stats(); st.Hits+st.Misses == 0 {
				t.Fatalf("day %d: production compiled an instance without its memo", day)
			}
		}
		prodHits := total().Hits
		if _, err := adv.RunDay(day, jobs, view); err != nil {
			t.Fatal(err)
		}
		if total().Hits == prodHits {
			t.Errorf("day %d: the pipeline reused none of production's rewrites", day)
		}
		rewrites := total().Misses
		for _, r := range runs {
			cfg := def
			if r.Hinted {
				cfg = def.WithFlip(r.Flip)
			}
			opts := r.Job.CompileOptions(cat)
			for _, probe := range []rules.Config{cfg, cfg.WithFlip(tuning[0]).WithFlip(tuning[1])} {
				if res, err := optimizer.Optimize(r.Job.Graph, probe, opts); err == nil && res.Logical != r.Logical {
					t.Errorf("day %d: %s compiled to another rewritten graph than production's", day, r.Job.ID)
				}
			}
		}
		if got := total().Misses - rewrites; got != 0 {
			t.Errorf("day %d: compiling again under production's configurations rewrote %d times", day, got)
		}
	}
}

// TestRunLoopInstanceBuilds pins the instance lookups of a small loop
// leg: 12 templates over 6 days, seed 1. Its misses are the instances the
// generator builds, its hits the lookups that found one memoized. Both
// are the counts of the loop when each flight built its next occurrence
// alone in its own Instantiate: batching the look-ahead per Run builds
// exactly the instances the flights look ahead to — none for a flight
// that fails, times out or is skipped — and JobsForDay builds the rest.
// A change that moves either count builds more or fewer instances, or
// counts them otherwise. It also pins the leg's rewrites and their
// reuses, the process's CompileCacheTotals over the leg, at their counts
// when every kept rewrite was a heap Clone: where a rewrite is kept
// changes neither how many run nor which lookups reuse one.
func TestRunLoopInstanceBuilds(t *testing.T) {
	const seed, templates, days = 1, 12, 6
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: templates, MaxDailyInstances: 2})
	if err != nil {
		t.Fatal(err)
	}
	before := optimizer.CompileCacheTotals()
	if _, err := runLoop(rules.NewCatalog(), gen, seed, days, nil); err != nil {
		t.Fatal(err)
	}
	after := optimizer.CompileCacheTotals()
	if got, want := gen.CompileCacheStats(), (optimizer.CompileCacheStats{Hits: 50, Misses: 76}); got != want {
		t.Errorf("the leg's instance lookups: %+v, want %+v", got, want)
	}
	rewrites := optimizer.CompileCacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
	if want := (optimizer.CompileCacheStats{Hits: 263, Misses: 121}); rewrites != want {
		t.Errorf("the leg's rewrite lookups: %+v, want %+v", rewrites, want)
	}
}

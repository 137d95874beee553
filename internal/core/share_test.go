package core

import (
	"cmp"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// sharingDay returns day 2 of a workload whose templates recur up to four
// times a day, reordered so that every instance's recurrences sit apart:
// all first recurrences, then all second ones, and so on.
func sharingDay(t *testing.T) (*workload.Generator, []*workload.Job) {
	t.Helper()
	gen, err := workload.New(workload.Config{Seed: 11, NumTemplates: 12, MaxDailyInstances: 4})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := gen.JobsForDay(2)
	if err != nil {
		t.Fatal(err)
	}
	jobs = slices.Clone(jobs)
	slices.SortStableFunc(jobs, func(a, b *workload.Job) int { return cmp.Compare(a.Seq, b.Seq) })
	apart := false
	for i := 1; i < len(jobs); i++ {
		apart = apart || jobs[i].Seq > 0 && jobs[i-1].Graph != jobs[i].Graph
	}
	if !apart {
		t.Fatal("no recurrence sits apart from the one before it")
	}
	return gen, jobs
}

// offFlip returns the first flip of one of cat's on-by-default rules
// whose compilation of job fails (fail) or succeeds (!fail).
func offFlip(cat *rules.Catalog, job *workload.Job, fail bool) (rules.Flip, bool) {
	for _, r := range cat.Rules(rules.OnByDefault) {
		flip := rules.Flip{RuleID: r.ID, Enable: false}
		_, err := optimizer.Optimize(job.Graph, cat.DefaultConfig().WithFlip(flip), job.CompileOptions(cat))
		if (err != nil) == fail {
			return flip, true
		}
	}
	return rules.Flip{}, false
}

// TestRunDaySharesInstanceCompile holds RunDay, which compiles each
// instance once and runs its recurrences in that borrowed compilation, to
// runJobRef, which compiles every job on its own and runs its published
// plan: same runs (job, rewritten graph, signature, cost bits, metrics,
// Hinted, Flip) and same view, in job order, at GOMAXPROCS 1 and 4, with
// recurrences apart in jobs. A third of the templates carry a hint that
// compiles and a third one that fails, so production falls back to the
// default. Every recurrence of an instance holds its memo's one rewritten
// graph, distinct instances hold distinct ones, and RunDay asks each
// instance's memo exactly as often as one compilation of the instance
// does.
func TestRunDaySharesInstanceCompile(t *testing.T) {
	cat := rules.NewCatalog()
	gen, jobs := sharingDay(t)
	var hints []sis.Hint
	failing := make(map[uint64]bool)
	for i, tpl := range gen.Templates() {
		if i%3 == 2 {
			continue
		}
		j, err := tpl.Instantiate(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if flip, ok := offFlip(cat, j, i%3 == 1); ok {
			hints = append(hints, sis.Hint{TemplateHash: tpl.Hash, TemplateID: tpl.ID, Flip: flip, Day: 1})
			failing[tpl.Hash] = i%3 == 1
		}
	}
	store := sis.NewStore(cat)
	if err := store.Upload(sis.File{Day: 1, Hints: hints}); err != nil {
		t.Fatal(err)
	}
	prod := NewProduction(cat, store, exec.DefaultCluster(1), 9)

	var want []JobRun
	var wantView []workload.ViewRow
	hinted, fellBack := 0, 0
	for i, job := range jobs {
		run, res, err := runJobRef(prod, job, prod.Seed+2*100003+int64(i)*7)
		if err != nil {
			continue
		}
		want = append(want, run)
		wantView = workload.AppendViewRows(wantView, job, res, run.Metrics)
		switch {
		case run.Hinted:
			hinted++
		case failing[job.Template.Hash]:
			fellBack++
		}
	}
	if hinted == 0 || fellBack == 0 {
		t.Fatalf("%d runs hinted, %d fell back from a failing hint; want both", hinted, fellBack)
	}

	// lookups counts what each instance's memo is asked while do runs.
	lookups := func(do func()) map[*scope.Graph]uint64 {
		n := make(map[*scope.Graph]uint64)
		for g, job := range instances(jobs) {
			st := job.CompileOptions(cat).Cache.Stats()
			n[g] -= st.Hits + st.Misses
		}
		do()
		for g, job := range instances(jobs) {
			st := job.CompileOptions(cat).Cache.Stats()
			n[g] += st.Hits + st.Misses
		}
		return n
	}
	for _, procs := range []int{1, 4} {
		var runs []JobRun
		var view []workload.ViewRow
		var err error
		prev := runtime.GOMAXPROCS(procs)
		asked := lookups(func() { runs, view, err = prod.RunDay(2, jobs) })
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d runs, want %d", procs, len(runs), len(want))
		}
		byInstance := make(map[*scope.Graph]*scope.Graph)
		graphs := make(map[*scope.Graph]bool)
		shared := 0
		for i, r := range runs {
			w := want[i]
			if r.Job != w.Job || r.Metrics != w.Metrics || r.Hinted != w.Hinted || r.Flip != w.Flip ||
				!r.Signature.Equal(w.Signature.Bitset) || !sameBits(r.EstCost, w.EstCost) || !reflect.DeepEqual(r.Logical, w.Logical) {
				t.Fatalf("GOMAXPROCS=%d: run %d (%s) hinted %v flip %v metrics %+v, want hinted %v flip %v metrics %+v, or its compilation differs",
					procs, i, r.Job.ID, r.Hinted, r.Flip, r.Metrics, w.Hinted, w.Flip, w.Metrics)
			}
			if first, ok := byInstance[r.Job.Graph]; !ok {
				byInstance[r.Job.Graph] = r.Logical
				if graphs[r.Logical] {
					t.Fatalf("GOMAXPROCS=%d: run %d shares a rewritten graph with another instance", procs, i)
				}
				graphs[r.Logical] = true
			} else if first != r.Logical {
				t.Fatalf("GOMAXPROCS=%d: run %d (%s) holds another rewritten graph than its instance's", procs, i, r.Job.ID)
			} else {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("GOMAXPROCS=%d: no recurrence shared its instance's rewritten graph", procs)
		}
		once := lookups(func() {
			for g, job := range instances(jobs) {
				def := cat.DefaultConfig()
				if _, err := optimizer.Optimize(g, store.ConfigFor(job.Template.Hash, def), job.CompileOptions(cat)); err != nil {
					optimizer.Optimize(g, def, job.CompileOptions(cat))
				}
			}
		})
		for g, job := range instances(jobs) {
			if asked[g] != once[g] {
				t.Errorf("GOMAXPROCS=%d: RunDay asked %s's memo %d times, one compilation asks it %d", procs, job.ID, asked[g], once[g])
			}
		}
		if !reflect.DeepEqual(view, wantView) {
			t.Errorf("GOMAXPROCS=%d: view differs from the per-job reference's", procs)
		}
	}
}

// instances maps each distinct instance among jobs to its first job.
func instances(jobs []*workload.Job) map[*scope.Graph]*workload.Job {
	out := make(map[*scope.Graph]*workload.Job)
	for _, job := range jobs {
		if _, ok := out[job.Graph]; !ok {
			out[job.Graph] = job
		}
	}
	return out
}

// scriptedRecommender picks a no-op for a fifth of the templates, for
// two more fifths the first span flip that lowers the job's estimated cost
// if there is one, and otherwise a job's flip by its recurrence number —
// seqs 0 and 1 the span's first rule, 2 and 3 its second — and records
// what phase 3 feeds back.
type scriptedRecommender struct {
	cat      *rules.Catalog
	n        int
	feedback []feedback
}

type feedback struct {
	eventID string
	reward  float64
	forget  bool
}

func (s *scriptedRecommender) Recommend(f *JobFeatures) (rules.Flip, bool, string) {
	s.n++
	id := f.Job.ID
	bits := f.Span.Bits()
	if f.Job.Template.Hash%5 == 0 || len(bits) == 0 {
		return rules.Flip{}, true, id
	}
	if h := f.Job.Template.Hash % 5; h == 1 || h == 2 {
		opts := optimizer.Options{Catalog: s.cat, Stats: f.Job.Stats, Tokens: f.Job.Tokens}
		for _, b := range bits {
			flip := s.cat.FlipFor(b)
			if res, err := optimizer.Optimize(f.Job.Graph, s.cat.DefaultConfig().WithFlip(flip), opts); err == nil && res.EstCost < f.EstCost {
				return flip, false, id
			}
		}
	}
	return s.cat.FlipFor(bits[f.Job.Seq/2%len(bits)]), false, id
}

func (s *scriptedRecommender) Learn(id string, reward float64) {
	s.feedback = append(s.feedback, feedback{eventID: id, reward: reward})
}

func (s *scriptedRecommender) Forget(id string) {
	s.feedback = append(s.feedback, feedback{eventID: id, forget: true})
}

// TestRecommendSharesRecompile holds Recommend, which recompiles once per
// (instance, flip), to a per-job Optimize without the instance's memo:
// the same CompileFailed for every job; for every compiled flip
// TreatCost, CostDelta and Reward bit for bit, and Recompiled nil when
// the flip does not improve the cost and a Result equal to Optimize's
// when it does; and the same Learn/Forget calls in job order, with
// recurrences apart in the input. Every job of an instance that drew one
// improving flip holds the one *optimizer.Result.
func TestRecommendSharesRecompile(t *testing.T) {
	cat := rules.NewCatalog()
	_, jobs := sharingDay(t)
	prod := NewProduction(cat, sis.NewStore(cat), exec.DefaultCluster(1), 5)
	_, view, err := prod.RunDay(2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := NewFeatureGen(cat).Run(jobs, view)
	if err != nil {
		t.Fatal(err)
	}
	rec := &scriptedRecommender{cat: cat}
	recs := Recommend(rec, cat, feats)
	if rec.n != len(feats) || len(recs) != len(feats) {
		t.Fatalf("%d ranks and %d recommendations for %d jobs", rec.n, len(recs), len(feats))
	}

	var wantFeedback []feedback
	byKey := make(map[recompileKey]*optimizer.Result)
	noops, failed, notImproving, improving, shared := 0, 0, 0, 0, 0
	for i, r := range recs {
		f := feats[i]
		if r.Features != f {
			t.Fatalf("recommendation %d is for %s, want %s", i, r.Features.Job.ID, f.Job.ID)
		}
		if r.NoOp {
			noops++
			if r.Recompiled != nil || r.CompileFailed || r.Reward != 1 || r.CostDelta != 0 {
				t.Errorf("no-op %s: recompiled %v, failed %v, reward %v, delta %v", f.Job.ID, r.Recompiled != nil, r.CompileFailed, r.Reward, r.CostDelta)
			}
			wantFeedback = append(wantFeedback, feedback{eventID: f.Job.ID, reward: 1})
			continue
		}
		opts := optimizer.Options{Catalog: cat, Stats: f.Job.Stats, Tokens: f.Job.Tokens}
		res, err := optimizer.Optimize(f.Job.Graph, cat.DefaultConfig().WithFlip(r.Flip), opts)
		if err != nil {
			failed++
			if !r.CompileFailed || r.Recompiled != nil || r.Reward != 0 || !math.IsInf(r.CostDelta, 1) {
				t.Errorf("%s under %v: failed %v, recompiled %v, reward %v, delta %v; want a failure", f.Job.ID, r.Flip, r.CompileFailed, r.Recompiled != nil, r.Reward, r.CostDelta)
			}
			wantFeedback = append(wantFeedback, feedback{eventID: f.Job.ID, forget: true})
			continue
		}
		reward, delta := min(f.EstCost/res.EstCost, RewardClip), res.EstCost/f.EstCost-1
		if r.CompileFailed || !sameBits(r.TreatCost, res.EstCost) || !sameBits(r.Reward, reward) || !sameBits(r.CostDelta, delta) {
			t.Fatalf("%s under %v: failed %v, treatment cost %v, reward %v, delta %v; want cost %v, reward %v, delta %v",
				f.Job.ID, r.Flip, r.CompileFailed, r.TreatCost, r.Reward, r.CostDelta, res.EstCost, reward, delta)
		}
		wantFeedback = append(wantFeedback, feedback{eventID: f.Job.ID, reward: reward})
		key := recompileKey{f.Job.Graph, r.Flip}
		if delta >= 0 {
			notImproving++
			if r.Recompiled != nil {
				t.Fatalf("%s under %v: delta %v, yet Recompiled holds a plan", f.Job.ID, r.Flip, delta)
			}
			continue
		}
		if r.Recompiled == nil || !reflect.DeepEqual(*r.Recompiled, *res) {
			t.Fatalf("%s under %v: delta %v, and Recompiled is nil or differs from Optimize's Result", f.Job.ID, r.Flip, delta)
		}
		improving++
		if first, ok := byKey[key]; !ok {
			byKey[key] = r.Recompiled
		} else if first != r.Recompiled {
			t.Fatalf("%s recompiled its instance under %v again", f.Job.ID, r.Flip)
		} else {
			shared++
		}
	}
	t.Logf("%d no-ops, %d failed, %d not improving, %d improving (%d sharing a Result)", noops, failed, notImproving, improving, shared)
	if noops == 0 || failed == 0 || notImproving == 0 || shared == 0 {
		t.Fatalf("%d no-ops, %d failed, %d not improving and %d shared improving recompilations; want each", noops, failed, notImproving, shared)
	}
	if !slices.Equal(rec.feedback, wantFeedback) {
		t.Errorf("phase 3 fed back %v, want %v", rec.feedback, wantFeedback)
	}
}

// sameBits reports whether a and b are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

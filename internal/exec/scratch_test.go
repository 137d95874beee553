package exec_test

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"qoadvisor/internal/budget"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/workload"
)

// ledgerRun is one ledger job compiled under the default configuration:
// what exec.Run is given on a pipeline day.
type ledgerRun struct {
	job  *workload.Job
	plan *optimizer.Plan
}

// ledgerRuns compiles the first n templates of the population the
// benchmark's offline leg runs (cmd/qobench pipeline_day).
func ledgerRuns(t *testing.T, n int) []ledgerRun {
	t.Helper()
	gen, err := workload.New(workload.Config{Seed: 20211101, NumTemplates: n})
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	var runs []ledgerRun
	for _, tpl := range gen.Templates() {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(job.Graph, cat.DefaultConfig(), job.CompileOptions(cat))
		if err != nil {
			continue
		}
		runs = append(runs, ledgerRun{job, res.Plan})
	}
	if len(runs) == 0 {
		t.Fatal("no ledger template compiled")
	}
	return runs
}

func (r ledgerRun) run(cluster *exec.Cluster, seed int64) exec.Metrics {
	return exec.Run(r.plan, r.job.Truth, r.job.Stats, cluster, seed)
}

// metricsDiff names the first field in which got differs from want,
// floats compared by their bits; "" when the two are identical.
func metricsDiff(got, want exec.Metrics) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		gf, wf := g.Field(i), w.Field(i)
		if gf.Kind() == reflect.Float64 && math.Float64bits(gf.Float()) == math.Float64bits(wf.Float()) ||
			gf.Kind() != reflect.Float64 && gf.Interface() == wf.Interface() {
			continue
		}
		return g.Type().Field(i).Name
	}
	return ""
}

// emptyPools drops what every sync.Pool holds: the first cycle moves it
// to the victim cache, the second frees it.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestRunScratchMatchesFresh: Run works in pooled scratch, and that must
// not show. Every ledger plan run on cold pools gives, bit for bit, the
// metrics it gives once the pools hold scratch grown — and dirtied — by
// every plan, the largest first.
func TestRunScratchMatchesFresh(t *testing.T) {
	n := 222
	if raceEnabled {
		n = 24
	}
	runs := ledgerRuns(t, n)
	cluster := exec.DefaultCluster(20211101)
	cold := make([]exec.Metrics, len(runs))
	for i, r := range runs {
		emptyPools()
		cold[i] = r.run(cluster, int64(i))
	}
	bySize := slices.Clone(runs)
	slices.SortFunc(bySize, func(a, b ledgerRun) int { return b.plan.IDBound() - a.plan.IDBound() })
	for i, r := range bySize {
		r.run(cluster, int64(-i))
	}
	for i, r := range runs {
		if d := metricsDiff(r.run(cluster, int64(i)), cold[i]); d != "" {
			t.Fatalf("%s: %s differs between a warmed and a cold Run", r.job.ID, d)
		}
	}
}

// runOnce runs the plan against a truth of its own and returns only a
// weak pointer to that truth, so nothing but Run can have kept it.
func runOnce(r ledgerRun) weak.Pointer[exec.Truth] {
	jt := r.job.Truth
	truth := &exec.Truth{
		Paths: slices.Clone(jt.Paths), Rows: slices.Clone(jt.Rows),
		Sites: slices.Clone(jt.Sites), Sel: slices.Clone(jt.Sel),
		JitterSeed: jt.JitterSeed,
	}
	exec.Run(r.plan, truth, r.job.Stats, exec.DefaultCluster(1), 1)
	return weak.Make(truth)
}

// TestRunDoesNotPinTruth: Run keeps nothing of its inputs after it
// returns — its scratch, and the cardinality engine it borrows, go back
// to their pools holding no Truth — so a day's ground truth is garbage
// once its jobs have run. One GC cycle only moves pooled items to the
// victim cache, so a pooled engine still pointing at the truth keeps it
// alive through it.
func TestRunDoesNotPinTruth(t *testing.T) {
	for _, r := range ledgerRuns(t, 4) {
		wp := runOnce(r)
		runtime.GC()
		if wp.Value() != nil {
			t.Fatalf("%s: the Truth Run was given is still reachable after it returned", r.job.ID)
		}
	}
}

// TestRunAllocBudget: once its pooled scratch has grown to the largest
// plan, Run allocates nothing on any ledger plan.
func TestRunAllocBudget(t *testing.T) {
	budget.SkipRace(t) // before the 40 ledger runs that set it up
	runs := ledgerRuns(t, 40)
	cluster := exec.DefaultCluster(20211101)
	budget.Gate(t, "exec.run", func() float64 {
		return testing.AllocsPerRun(10, func() {
			for i, r := range runs {
				r.run(cluster, int64(i))
			}
		}) / float64(len(runs))
	})
}

package workload

import (
	"strings"
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

func newGen(t *testing.T, n int) *Generator {
	t.Helper()
	g, err := New(Config{Seed: 7, NumTemplates: n})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestGeneratorProducesRequestedTemplates(t *testing.T) {
	g := newGen(t, 20)
	if len(g.Templates()) != 20 {
		t.Fatalf("templates = %d", len(g.Templates()))
	}
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a := newGen(t, 10)
	b := newGen(t, 10)
	for i := range a.Templates() {
		ta, tb := a.Templates()[i], b.Templates()[i]
		if ta.ScriptPattern != tb.ScriptPattern {
			t.Fatalf("template %d scripts differ", i)
		}
		if ta.Hash != tb.Hash {
			t.Fatalf("template %d hashes differ", i)
		}
	}
}

func TestAllTemplatesCompile(t *testing.T) {
	g := newGen(t, 40)
	for _, tpl := range g.Templates() {
		j, err := tpl.Instantiate(3, 0)
		if err != nil {
			t.Errorf("template %s: %v\nscript:\n%s", tpl.ID, err, tpl.ScriptPattern)
			continue
		}
		if j.Graph == nil || len(j.Graph.Roots) == 0 {
			t.Errorf("template %s produced empty graph", tpl.ID)
		}
	}
}

func TestTemplateHashStableAcrossDays(t *testing.T) {
	g := newGen(t, 15)
	for _, tpl := range g.Templates() {
		j1, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		j2, err := tpl.Instantiate(8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if j1.Graph.TemplateHash() != j2.Graph.TemplateHash() {
			t.Errorf("template %s: hash differs across days (recurring identity broken)", tpl.ID)
		}
	}
}

func TestInstanceVariesAcrossDays(t *testing.T) {
	g := newGen(t, 5)
	tpl := g.Templates()[0]
	j1, _ := tpl.Instantiate(1, 0)
	j2, _ := tpl.Instantiate(2, 0)
	// True base rows differ day to day.
	same := true
	for i1, p1 := range j1.Truth.Paths {
		for i2, p2 := range j2.Truth.Paths {
			if strings.Split(p1, "_")[0] == strings.Split(p2, "_")[0] && j1.Truth.Rows[i1] != j2.Truth.Rows[i2] {
				same = false
			}
		}
	}
	if same && len(j1.Truth.Paths) > 0 {
		t.Error("true row counts should vary across days")
	}
}

func TestTruthSitesMatchCompiledPlan(t *testing.T) {
	// The generator's true-selectivity site keys must match the site keys
	// the cardinality engine derives from the compiled plan, otherwise
	// truth silently falls back to jitter.
	g := newGen(t, 30)
	totalSites, matched := 0, 0
	for _, tpl := range g.Templates() {
		j, err := tpl.Instantiate(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		planSites := make(map[string]bool)
		for _, n := range j.Graph.Nodes() {
			if k := string(n.AppendSiteKey(nil)); k != "" {
				planSites[k] = true
			}
			// Filters contribute per-conjunct sites (the cardinality
			// engine estimates conjunct by conjunct).
			if n.Pred != nil {
				for _, c := range scope.AppendConjuncts(nil, n.Pred) {
					planSites["filter:"+c.String()] = true
				}
			}
		}
		for _, site := range j.Truth.Sites {
			totalSites++
			if planSites[site] {
				matched++
			}
		}
	}
	if totalSites == 0 {
		t.Fatal("no truth sites generated")
	}
	frac := float64(matched) / float64(totalSites)
	if frac < 0.85 {
		t.Errorf("only %.0f%% of truth sites match plan sites (%d/%d)", frac*100, matched, totalSites)
	}
}

func TestJobsForDay(t *testing.T) {
	g := newGen(t, 10)
	jobs, err := g.JobsForDay(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 10 {
		t.Fatalf("jobs = %d, want >= one per template", len(jobs))
	}
	seen := make(map[string]bool)
	for _, j := range jobs {
		if seen[j.ID] {
			t.Errorf("duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
		if j.Date != 4 {
			t.Errorf("job date = %d", j.Date)
		}
	}
}

func TestStatsHaveEstimationError(t *testing.T) {
	g := newGen(t, 25)
	exact := 0
	total := 0
	for _, tpl := range g.Templates() {
		j, _ := tpl.Instantiate(1, 0)
		for _, path := range j.Truth.Paths {
			ts, ok := j.Stats.TableStats(path)
			if !ok {
				t.Fatalf("%s: no statistics for its table %s", j.ID, path)
			}
			total++
			if ts.Rows == j.Truth.BaseRows(path) {
				exact++
			}
		}
	}
	if total == 0 {
		t.Fatal("no stats generated")
	}
	if exact > total/10 {
		t.Errorf("optimizer stats should be erroneous: %d/%d exact", exact, total)
	}
}

func TestEndToEndCompileAndRun(t *testing.T) {
	g := newGen(t, 15)
	cat := rules.NewCatalog()
	cluster := exec.DefaultCluster(3)
	ran := 0
	for _, tpl := range g.Templates() {
		j, err := tpl.Instantiate(5, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(j.Graph, cat.DefaultConfig(), optimizer.Options{
			Catalog: cat, Stats: j.Stats, Tokens: j.Tokens,
		})
		if err != nil {
			t.Errorf("template %s failed to optimize under default config: %v", tpl.ID, err)
			continue
		}
		m := exec.Run(res.Plan, j.Truth, j.Stats, cluster, 1)
		if m.PNHours <= 0 || m.LatencySec <= 0 {
			t.Errorf("template %s: bad metrics %+v", tpl.ID, m)
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("nothing ran")
	}
}

// TestAppendViewRows: a job contributes one row per query tree, carrying
// its identity, appended behind what dst already held.
func TestAppendViewRows(t *testing.T) {
	g := newGen(t, 8)
	cat := rules.NewCatalog()
	cluster := exec.DefaultCluster(3)
	for _, tpl := range g.Templates() {
		j, err := tpl.Instantiate(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(j.Graph, cat.DefaultConfig(), optimizer.Options{
			Catalog: cat, Stats: j.Stats, Tokens: j.Tokens,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := exec.Run(res.Plan, j.Truth, j.Stats, cluster, 1)
		prior := ViewRow{JobID: "prior"}
		rows := AppendViewRows([]ViewRow{prior}, j, res, m)
		if rows[0] != prior {
			t.Fatalf("dst's row became %+v", rows[0])
		}
		rows = rows[1:]
		if len(rows) != len(res.Plan.Roots) {
			t.Fatalf("view rows = %d, want %d (one per query tree)", len(rows), len(res.Plan.Roots))
		}
		for _, r := range rows {
			if r.JobID != j.ID || r.TemplateID != tpl.ID {
				t.Errorf("identity wrong: %+v", r)
			}
			if r.EstimatedCost <= 0 || r.PNHours <= 0 {
				t.Errorf("bad view row: %+v", r)
			}
		}
	}
}

func TestDailyInstancesBounds(t *testing.T) {
	g, err := New(Config{Seed: 1, NumTemplates: 30, MaxDailyInstances: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range g.Templates() {
		if tpl.DailyInstances < 1 || tpl.DailyInstances > 2 {
			t.Errorf("daily instances = %d", tpl.DailyInstances)
		}
	}
}

func TestInstancesShareCompiledGraphs(t *testing.T) {
	g, err := New(Config{Seed: 3, NumTemplates: 6, MaxDailyInstances: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range g.Templates() {
		if tpl.DailyInstances < 2 {
			continue
		}
		a, err := tpl.Instantiate(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tpl.Instantiate(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Graph != b.Graph {
			t.Errorf("template %s: same-day instances should share one bound graph", tpl.ID)
		}
		c, err := tpl.Instantiate(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.Graph == a.Graph {
			t.Errorf("template %s: different dates have different literals and graphs", tpl.ID)
		}
	}
	if st := g.CompileCacheStats(); st.Hits == 0 {
		t.Error("the instance memo saw no hits across repeated instantiation")
	}
}

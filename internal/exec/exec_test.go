package exec

import (
	"math"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/stats"
)

const testScript = `
logs = EXTRACT uid:long, page:string, dur:int FROM "data/logs.tsv";
users = EXTRACT uid:long, region:string FROM "data/users.tsv";
clicks = SELECT uid, dur FROM logs WHERE dur > 100;
joined = SELECT l.uid, l.dur, u.region FROM clicks AS l JOIN users AS u ON l.uid == u.uid;
agg = SELECT region, SUM(dur) AS total FROM joined GROUP BY region;
OUTPUT agg TO "out/agg.tsv";
`

func testStats() optimizer.MapStats {
	return optimizer.MapStats{
		"data/logs.tsv":  {Rows: 2e6, NDV: map[string]float64{"uid": 1e5, "page": 1000, "dur": 500}},
		"data/users.tsv": {Rows: 1e5, NDV: map[string]float64{"uid": 1e5, "region": 50}},
	}
}

func testTruth() *Truth {
	return &Truth{
		Paths: []string{"data/logs.tsv", "data/users.tsv"}, Rows: []float64{2.4e6, 1e5},
		Sites: []string{"filter:(dur > 100)"}, Sel: []float64{0.4},
		JitterSeed: 99,
	}
}

func compilePlan(t *testing.T) *optimizer.Plan {
	t.Helper()
	g, err := scope.CompileScript(testScript)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	res, err := optimizer.Optimize(g, cat.DefaultConfig(), optimizer.Options{Catalog: cat, Stats: testStats()})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

func TestRunProducesPositiveMetrics(t *testing.T) {
	plan := compilePlan(t)
	m := Run(plan, testTruth(), testStats(), DefaultCluster(1), 0)
	if m.LatencySec <= 0 {
		t.Errorf("latency = %v", m.LatencySec)
	}
	if m.PNHours <= 0 {
		t.Errorf("pnhours = %v", m.PNHours)
	}
	if m.Vertices <= 0 {
		t.Errorf("vertices = %d", m.Vertices)
	}
	if m.DataRead <= 0 || m.DataWritten <= 0 {
		t.Errorf("io: read=%v written=%v", m.DataRead, m.DataWritten)
	}
	if m.MaxMemory <= 0 || m.AvgMemory <= 0 {
		t.Errorf("memory: max=%v avg=%v", m.MaxMemory, m.AvgMemory)
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	plan := compilePlan(t)
	a := Run(plan, testTruth(), testStats(), DefaultCluster(1), 42)
	b := Run(plan, testTruth(), testStats(), DefaultCluster(1), 42)
	if a != b {
		t.Errorf("same seed must give identical metrics:\n%+v\n%+v", a, b)
	}
	c := Run(plan, testTruth(), testStats(), DefaultCluster(1), 43)
	if a.LatencySec == c.LatencySec {
		t.Error("different seeds should vary latency")
	}
}

func TestDataVolumesAreRunInvariant(t *testing.T) {
	// DataRead/DataWritten must be identical across A/A runs: this is the
	// paper's core argument for validating on I/O-derived metrics.
	plan := compilePlan(t)
	runs := RunN(plan, testTruth(), testStats(), DefaultCluster(1), 0, 10)
	for _, r := range runs[1:] {
		if r.DataRead != runs[0].DataRead || r.DataWritten != runs[0].DataWritten {
			t.Fatal("data volumes varied across A/A runs")
		}
		if r.Vertices != runs[0].Vertices {
			t.Fatal("vertices varied across A/A runs")
		}
	}
}

func TestLatencyVarianceExceedsPNHoursVariance(t *testing.T) {
	plan := compilePlan(t)
	runs := RunN(plan, testTruth(), testStats(), DefaultCluster(7), 100, 30)
	var lat, pn []float64
	for _, r := range runs {
		lat = append(lat, r.LatencySec)
		pn = append(pn, r.PNHours)
	}
	cvLat := stats.CoefficientOfVariation(lat)
	cvPN := stats.CoefficientOfVariation(pn)
	if cvLat <= cvPN {
		t.Errorf("latency CV (%v) should exceed PNhours CV (%v)", cvLat, cvPN)
	}
	if cvPN > 0.10 {
		t.Errorf("PNhours CV = %v, want small", cvPN)
	}
	if cvLat < 0.05 {
		t.Errorf("latency CV = %v, want substantial", cvLat)
	}
}

func TestTruthSelectivityLookup(t *testing.T) {
	tr := testTruth()
	if got := tr.Selectivity([]byte("filter:(dur > 100)"), 0.3); got != 0.4 {
		t.Errorf("known site = %v, want 0.4", got)
	}
	// Unknown sites: deterministic jitter of the heuristic.
	a := tr.Selectivity([]byte("filter:(x == 1)"), 0.1)
	b := tr.Selectivity([]byte("filter:(x == 1)"), 0.1)
	if a != b {
		t.Error("unknown-site jitter must be deterministic")
	}
	if a <= 0 || a > 1 {
		t.Errorf("selectivity out of range: %v", a)
	}
	c := tr.Selectivity([]byte("filter:(y == 2)"), 0.1)
	if a == c {
		t.Error("different sites should jitter differently")
	}
}

func TestTruthBaseRowsDefault(t *testing.T) {
	tr := &Truth{}
	if got := tr.BaseRows("unknown"); got != 1e6 {
		t.Errorf("default base rows = %v", got)
	}
}

// TestTruthLastMatchWins: a key that appears twice answers with its last
// value, as the map the facts once were kept its last write.
func TestTruthLastMatchWins(t *testing.T) {
	tr := &Truth{
		Paths: []string{"data/a.tsv", "data/b.tsv", "data/a.tsv"}, Rows: []float64{1, 2, 3},
		Sites: []string{"filter:(x > 1)", "agg:k", "filter:(x > 1)"}, Sel: []float64{0.1, 0.2, 0.3},
	}
	if got := tr.BaseRows("data/a.tsv"); got != 3 {
		t.Errorf("BaseRows of a path listed twice = %v, want the last value 3", got)
	}
	if got := tr.BaseRows("data/b.tsv"); got != 2 {
		t.Errorf("BaseRows(data/b.tsv) = %v, want 2", got)
	}
	if got := tr.Selectivity([]byte("filter:(x > 1)"), 0.5); got != 0.3 {
		t.Errorf("Selectivity of a site listed twice = %v, want the last value 0.3", got)
	}
	if got := tr.Selectivity([]byte("agg:k"), 0.5); got != 0.2 {
		t.Errorf("Selectivity(agg:k) = %v, want 0.2", got)
	}
}

func TestBiggerDataMeansBiggerMetrics(t *testing.T) {
	plan := compilePlan(t)
	small := &Truth{Paths: []string{"data/logs.tsv", "data/users.tsv"}, Rows: []float64{1e5, 1e4}, JitterSeed: 5}
	big := &Truth{Paths: []string{"data/logs.tsv", "data/users.tsv"}, Rows: []float64{1e7, 1e6}, JitterSeed: 5}
	cl := DefaultCluster(3)
	ms := Run(plan, small, testStats(), cl, 1)
	mb := Run(plan, big, testStats(), cl, 1)
	if mb.DataRead <= ms.DataRead {
		t.Errorf("read: big=%v small=%v", mb.DataRead, ms.DataRead)
	}
	if mb.PNHours <= ms.PNHours {
		t.Errorf("pnhours: big=%v small=%v", mb.PNHours, ms.PNHours)
	}
}

func TestHiccupTailExists(t *testing.T) {
	plan := compilePlan(t)
	cl := DefaultCluster(11)
	cl.hiccupProb = 0.5
	cl.hiccupFactor = 10
	runs := RunN(plan, testTruth(), testStats(), cl, 0, 40)
	var lat []float64
	for _, r := range runs {
		lat = append(lat, r.LatencySec)
	}
	max := stats.Max(lat)
	med, _ := stats.Median(lat)
	if max < med*2 {
		t.Errorf("hiccups should create a heavy tail: max=%v median=%v", max, med)
	}
}

func TestPNHoursComponentsAddUp(t *testing.T) {
	plan := compilePlan(t)
	m := Run(plan, testTruth(), testStats(), DefaultCluster(1), 0)
	// PNhours must be at least the noise-free IO + vertex overhead.
	lower := (m.TotalIOSec + 0.9*m.TotalCPUSec) / 3600
	upper := (m.TotalIOSec + 1.5*m.TotalCPUSec + 1.0*float64(m.Vertices)) / 3600
	if m.PNHours < lower || m.PNHours > upper {
		t.Errorf("PNhours %v outside [%v, %v]", m.PNHours, lower, upper)
	}
	if math.IsNaN(m.PNHours) {
		t.Error("NaN PNhours")
	}
}

func TestRunNSeedsDiffer(t *testing.T) {
	plan := compilePlan(t)
	runs := RunN(plan, testTruth(), testStats(), DefaultCluster(5), 0, 5)
	distinct := make(map[float64]bool)
	for _, r := range runs {
		distinct[r.LatencySec] = true
	}
	if len(distinct) < 2 {
		t.Error("A/A runs should produce varying latencies")
	}
}

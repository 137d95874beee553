package exec

import (
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// buildPlan compiles a script under the default configuration.
func buildPlan(t *testing.T, src string, st optimizer.MapStats) *optimizer.Plan {
	t.Helper()
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	res, err := optimizer.Optimize(g, cat.DefaultConfig(), optimizer.Options{Catalog: cat, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan
}

func TestScanReadsScaleWithTrueRows(t *testing.T) {
	src := `
t = EXTRACT a:long, b:double FROM "data/t.tsv";
OUTPUT t TO "o";`
	st := optimizer.MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 1e5}}}
	plan := buildPlan(t, src, st)
	cl := DefaultCluster(1)
	m1 := Run(plan, &Truth{Paths: []string{"data/t.tsv"}, Rows: []float64{1e6}, JitterSeed: 1}, st, cl, 1)
	m2 := Run(plan, &Truth{Paths: []string{"data/t.tsv"}, Rows: []float64{2e6}, JitterSeed: 1}, st, cl, 1)
	ratio := m2.DataRead / m1.DataRead
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling true rows should ~double data read, ratio=%v", ratio)
	}
}

func TestOutputContributesDataWritten(t *testing.T) {
	src := `
t = EXTRACT a:long FROM "data/t.tsv";
OUTPUT t TO "o";`
	st := optimizer.MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 1e5}}}
	plan := buildPlan(t, src, st)
	m := Run(plan, &Truth{Paths: []string{"data/t.tsv"}, Rows: []float64{1e6}, JitterSeed: 1}, st, DefaultCluster(1), 1)
	// A pure copy job writes its full output: 1e6 rows * 8 bytes.
	if m.DataWritten < 7e6 || m.DataWritten > 9e6 {
		t.Errorf("data written = %v, want ~8e6", m.DataWritten)
	}
}

func TestShuffleCountsReadAndWrite(t *testing.T) {
	// An aggregation shuffles: exchange bytes count as both written (by
	// producers) and read (by consumers).
	src := `
t = EXTRACT k:long, v:double FROM "data/t.tsv";
a = SELECT k, SUM(v) AS s FROM t GROUP BY k;
OUTPUT a TO "o";`
	st := optimizer.MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"k": 5e5, "v": 1e4}}}
	plan := buildPlan(t, src, st)
	truth := &Truth{
		Paths: []string{"data/t.tsv"}, Rows: []float64{1e6},
		Sites: []string{"agg:k"}, Sel: []float64{0.5},
		JitterSeed: 1,
	}
	m := Run(plan, truth, st, DefaultCluster(1), 1)
	if m.DataWritten <= 0 {
		t.Fatal("shuffle should produce written bytes")
	}
	// Reads include the base scan plus the shuffle read.
	scanBytes := 1e6 * 16 // two 8-byte columns
	if m.DataRead <= scanBytes*0.5 {
		t.Errorf("reads (%v) should include shuffle traffic beyond the scan", m.DataRead)
	}
}

func TestBroadcastMultipliesBytesByPartitions(t *testing.T) {
	src := `
big = EXTRACT k:long, v:int FROM "data/big.tsv";
dim = EXTRACT k:long, s:int FROM "data/dim.tsv";
j = SELECT a.v, b.s FROM big AS a JOIN dim AS b ON a.k == b.k;
OUTPUT j TO "o";`
	st := optimizer.MapStats{
		"data/big.tsv": {Rows: 2e7, NDV: map[string]float64{"k": 1e6}},
		"data/dim.tsv": {Rows: 1e3, NDV: map[string]float64{"k": 1e3}},
	}
	plan := buildPlan(t, src, st)
	hasBroadcast := false
	for _, n := range plan.Nodes() {
		if n.IsExchange() && n.Exchange == optimizer.ExchangeBroadcast {
			hasBroadcast = true
			if n.Partitions < 2 {
				t.Skip("broadcast to a single partition: nothing to check")
			}
		}
	}
	if !hasBroadcast {
		t.Skip("planner did not choose a broadcast join for this shape")
	}
	truth := &Truth{
		Paths: []string{"data/big.tsv", "data/dim.tsv"}, Rows: []float64{2e7, 1e3},
		Sites: []string{"join:(k == b_k)"}, Sel: []float64{1e-3},
		JitterSeed: 1,
	}
	m := Run(plan, truth, st, DefaultCluster(1), 1)
	if m.DataWritten <= 0 {
		t.Error("broadcast should produce shuffle bytes")
	}
}

func TestMemoryTracksHashBuildSide(t *testing.T) {
	src := `
l = EXTRACT k:long, v:int FROM "data/l.tsv";
r = EXTRACT k:long, w:int FROM "data/r.tsv";
j = SELECT a.v, b.w FROM l AS a JOIN r AS b ON a.k == b.k;
OUTPUT j TO "o";`
	st := optimizer.MapStats{
		"data/l.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e6}},
		"data/r.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e6}},
	}
	plan := buildPlan(t, src, st)
	small := &Truth{Paths: []string{"data/l.tsv", "data/r.tsv"}, Rows: []float64{5e6, 1e4}, JitterSeed: 2}
	big := &Truth{Paths: []string{"data/l.tsv", "data/r.tsv"}, Rows: []float64{5e6, 5e7}, JitterSeed: 2}
	cl := DefaultCluster(2)
	mSmall := Run(plan, small, st, cl, 1)
	mBig := Run(plan, big, st, cl, 1)
	if mBig.MaxMemory <= mSmall.MaxMemory {
		t.Errorf("bigger build side should need more memory: %v vs %v", mBig.MaxMemory, mSmall.MaxMemory)
	}
}

func TestLatencyRespondsToCriticalPath(t *testing.T) {
	// A deeper plan (join + agg + sort) should have higher latency than a
	// flat copy of the same input volume.
	flat := `
t = EXTRACT k:long, v:double FROM "data/t.tsv";
OUTPUT t TO "o";`
	deep := `
t = EXTRACT k:long, v:double FROM "data/t.tsv";
u = EXTRACT k:long, w:double FROM "data/u.tsv";
j = SELECT a.k, a.v, b.w FROM t AS a JOIN u AS b ON a.k == b.k;
g = SELECT k, SUM(v) AS s FROM j GROUP BY k;
o = SELECT k, s FROM g ORDER BY s DESC;
OUTPUT o TO "out";`
	st := optimizer.MapStats{
		"data/t.tsv": {Rows: 2e6, NDV: map[string]float64{"k": 1e5, "v": 1e4}},
		"data/u.tsv": {Rows: 2e6, NDV: map[string]float64{"k": 1e5, "w": 1e4}},
	}
	truth := &Truth{
		Paths: []string{"data/t.tsv", "data/u.tsv"}, Rows: []float64{2e6, 2e6},
		JitterSeed: 3,
	}
	cl := DefaultCluster(3)
	cl.queueSigma = 0 // remove global noise for a clean comparison
	cl.stragglerSigma = 0
	cl.hiccupProb = 0
	mFlat := Run(buildPlan(t, flat, st), truth, st, cl, 1)
	mDeep := Run(buildPlan(t, deep, st), truth, st, cl, 1)
	if mDeep.LatencySec <= mFlat.LatencySec {
		t.Errorf("deep plan latency (%v) should exceed flat copy (%v)", mDeep.LatencySec, mFlat.LatencySec)
	}
}

func TestNoiseFreeClusterIsFullyDeterministicAcrossSeeds(t *testing.T) {
	src := `
t = EXTRACT a:long FROM "data/t.tsv";
OUTPUT t TO "o";`
	st := optimizer.MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 1e5}}}
	plan := buildPlan(t, src, st)
	truth := &Truth{Paths: []string{"data/t.tsv"}, Rows: []float64{1e6}, JitterSeed: 1}
	cl := &Cluster{Seed: 1} // all sigmas zero
	m1 := Run(plan, truth, st, cl, 1)
	m2 := Run(plan, truth, st, cl, 999)
	if m1.PNHours != m2.PNHours || m1.LatencySec != m2.LatencySec {
		t.Error("zero-noise cluster should be seed-invariant")
	}
}

func TestVerticesMatchPlanEstimate(t *testing.T) {
	src := `
t = EXTRACT k:long, v:double FROM "data/t.tsv";
a = SELECT k, SUM(v) AS s FROM t GROUP BY k;
OUTPUT a TO "o";`
	st := optimizer.MapStats{"data/t.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e5}}}
	plan := buildPlan(t, src, st)
	m := Run(plan, &Truth{Paths: []string{"data/t.tsv"}, Rows: []float64{5e6}, JitterSeed: 1}, st, DefaultCluster(1), 1)
	if m.Vertices != plan.EstVertices {
		t.Errorf("runtime vertices %d != compiled plan vertices %d", m.Vertices, plan.EstVertices)
	}
}

package optimizer

import (
	"testing"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

func physOps(p *Plan) map[PhysOp]int {
	m := make(map[PhysOp]int)
	for _, n := range p.Nodes() {
		m[n.Op]++
	}
	return m
}

func TestJoinLowersToHashJoinByDefault(t *testing.T) {
	src := `
l = EXTRACT k:long, v:int FROM "data/l.tsv";
r = EXTRACT k:long, w:int FROM "data/r.tsv";
j = SELECT a.v, b.w FROM l AS a JOIN r AS b ON a.k == b.k;
OUTPUT j TO "o";`
	st := MapStats{
		"data/l.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e6}},
		"data/r.tsv": {Rows: 4e6, NDV: map[string]float64{"k": 1e6}},
	}
	// Disable the broadcast-bias tuning rules so the choice is purely
	// cost-based.
	res, _ := optimizeSrc(t, src, st, disableKinds(rules.KindTuneBroadcastThreshold))
	ops := physOps(res.Plan)
	joins := ops[PhysHashJoin] + ops[PhysMergeJoin] + ops[PhysBroadcastJoin] + ops[PhysNestedLoopJoin]
	if joins != 1 {
		t.Fatalf("physical joins = %d, want 1", joins)
	}
	// Two similar-sized inputs: broadcast is too expensive, a
	// co-partitioned join should win.
	if ops[PhysBroadcastJoin] != 0 {
		t.Error("similar-sized join should not broadcast")
	}
}

func TestDisablingAllJoinImplsFailsCompilation(t *testing.T) {
	src := `
l = EXTRACT k:long, v:int FROM "data/l.tsv";
r = EXTRACT k:long, w:int FROM "data/r.tsv";
j = SELECT a.v, b.w FROM l AS a JOIN r AS b ON a.k == b.k;
OUTPUT j TO "o";`
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	cfg := cat.DefaultConfig()
	for _, r := range cat.All() {
		switch r.Kind {
		case rules.KindImplHashJoin, rules.KindImplMergeJoin,
			rules.KindImplBroadcastJoin, rules.KindImplNestedLoopJoin:
			cfg = cfg.WithFlip(rules.Flip{RuleID: r.ID, Enable: false})
		}
	}
	_, err = Optimize(g, cfg, Options{Catalog: cat, Stats: MapStats{}})
	if err == nil {
		t.Fatal("expected compile failure without any join implementation")
	}
	if !IsCompileFailure(err) {
		t.Fatalf("error type %T", err)
	}
}

func TestSortRequiresRangePartitionerAndExternalSort(t *testing.T) {
	src := `
t = EXTRACT a:int, b:int FROM "data/t.tsv";
s = SELECT a, b FROM t ORDER BY a;
OUTPUT s TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"a": 1e4}}}

	// Default: a range exchange feeds the sort.
	res, _ := optimizeSrc(t, src, st, nil)
	hasRange := false
	for _, n := range res.Plan.Nodes() {
		if n.IsExchange() && n.Exchange == ExchangeRange {
			hasRange = true
		}
	}
	if !hasRange {
		t.Error("global sort should use a range exchange")
	}

	// No sort implementation at all: compile failure.
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	cfg := disableKinds(rules.KindImplExternalSort)(cat, cat.DefaultConfig())
	if _, err := Optimize(g, cfg, Options{Catalog: cat, Stats: st}); err == nil {
		t.Error("expected failure with the sort implementation disabled")
	}
}

func TestHashExchangeFallsBackToRangePartition(t *testing.T) {
	src := `
t = EXTRACT k:int, v:double FROM "data/t.tsv";
a = SELECT k, SUM(v) AS s FROM t GROUP BY k;
OUTPUT a TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e5}}}
	res, _ := optimizeSrc(t, src, st, disableKinds(rules.KindImplHashPartition))
	hasRange := false
	for _, n := range res.Plan.Nodes() {
		if n.IsExchange() && n.Exchange == ExchangeRange {
			hasRange = true
		}
		if n.IsExchange() && n.Exchange == ExchangeHash {
			t.Error("hash exchange present with hash partitioner disabled")
		}
	}
	if !hasRange {
		t.Error("aggregation should fall back to range partitioning")
	}
}

func TestGlobalAggGathersToSinglePartition(t *testing.T) {
	src := `
t = EXTRACT v:int FROM "data/t.tsv";
a = SELECT COUNT(*) AS c FROM t;
OUTPUT a TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e7, NDV: map[string]float64{"v": 100}}}
	res, _ := optimizeSrc(t, src, st, nil)
	for _, n := range res.Plan.Nodes() {
		if (n.Op == PhysHashAgg || n.Op == PhysStreamAgg) && n.Logical != nil && !n.Logical.Partial {
			if n.Partitions != 1 {
				t.Errorf("global aggregation should run single-partition, got %d", n.Partitions)
			}
		}
	}
}

func TestExchangeReuseAcrossCoPartitionedOps(t *testing.T) {
	// Join on k followed by aggregation on k: the agg should reuse the
	// join's partitioning instead of reshuffling.
	src := `
l = EXTRACT k:long, v:int FROM "data/l.tsv";
r = EXTRACT k:long, w:int FROM "data/r.tsv";
j = SELECT a.k, a.v FROM l AS a JOIN r AS b ON a.k == b.k;
g = SELECT k, SUM(v) AS s FROM j GROUP BY k;
OUTPUT g TO "o";`
	st := MapStats{
		"data/l.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e6, "v": 100}},
		"data/r.tsv": {Rows: 5e6, NDV: map[string]float64{"k": 1e6, "w": 100}},
	}
	res, _ := optimizeSrc(t, src, st, disableKinds(rules.KindLocalGlobalAgg, rules.KindTuneStageFusion))
	// Count key exchanges: the join needs two (one per side); the agg on
	// the same key should add none.
	keyExchanges := 0
	for _, n := range res.Plan.Nodes() {
		if n.IsExchange() && (n.Exchange == ExchangeHash || n.Exchange == ExchangeRange) {
			keyExchanges++
		}
	}
	if keyExchanges > 2 {
		t.Errorf("expected exchange reuse for co-partitioned agg, got %d key exchanges", keyExchanges)
	}
}

func TestStageAssignmentMatchesExchanges(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	// Every non-fused exchange must sit in a different stage from its
	// input.
	for _, n := range res.Plan.Nodes() {
		if n.IsExchange() && !n.Fused {
			for _, in := range n.Inputs {
				if in.StageID == n.StageID {
					t.Errorf("exchange #%d shares stage %d with its input", n.ID, n.StageID)
				}
			}
		}
		if !n.IsExchange() {
			for _, in := range n.Inputs {
				if !in.IsExchange() && in.StageID != n.StageID {
					t.Errorf("pipelined op #%d (%v) in stage %d, input #%d in stage %d",
						n.ID, n.Op, n.StageID, in.ID, in.StageID)
				}
			}
		}
	}
}

func TestEstVerticesEqualsStagePartitionSum(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	sum := 0
	for _, s := range res.Plan.Stages {
		sum += s.Partitions
	}
	if res.Plan.EstVertices != sum {
		t.Errorf("EstVertices %d != stage partition sum %d", res.Plan.EstVertices, sum)
	}
}

func TestTokensBoundParallelism(t *testing.T) {
	src := `
t = EXTRACT a:long, b:double FROM "data/t.tsv";
x = SELECT a, b FROM t WHERE b > 0.5;
OUTPUT x TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e9, NDV: map[string]float64{"a": 1e6}}}
	g, err := scope.CompileScript(src)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	res, err := Optimize(g, cat.DefaultConfig(), Options{Catalog: cat, Stats: st, Tokens: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Plan.Nodes() {
		if n.Partitions > 10 {
			t.Errorf("node #%d parallelism %d exceeds token budget 10", n.ID, n.Partitions)
		}
	}
}

func TestIndexSeekForSelectiveEquality(t *testing.T) {
	src := `
t = EXTRACT a:long, b:string FROM "data/t.tsv";
x = SELECT a FROM t WHERE a == 42;
OUTPUT x TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e8, NDV: map[string]float64{"a": 1e7, "b": 100}}}
	res, _ := optimizeSrc(t, src, st, nil)
	ops := physOps(res.Plan)
	if ops[PhysIndexSeek] != 1 {
		t.Errorf("highly selective equality should use an index seek, ops=%v", ops)
	}
	// With index seeks disabled, a scan takes over.
	res2, _ := optimizeSrc(t, src, st, disableKinds(rules.KindImplIndexSeek))
	ops2 := physOps(res2.Plan)
	if ops2[PhysIndexSeek] != 0 {
		t.Error("index seek used while disabled")
	}
	if ops2[PhysRowScan]+ops2[PhysColumnScan] != 1 {
		t.Errorf("expected a scan fallback, ops=%v", ops2)
	}
}

func TestTopLowersToLocalAndFinalPhases(t *testing.T) {
	src := `
t = EXTRACT a:int FROM "data/t.tsv";
x = SELECT * FROM t ORDER BY a DESC TOP 5;
OUTPUT x TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e7, NDV: map[string]float64{"a": 1e5}}}
	res, _ := optimizeSrc(t, src, st, nil)
	ops := physOps(res.Plan)
	tops := ops[PhysTopNHeap] + ops[PhysTopNSort]
	if tops < 2 {
		t.Errorf("top-n should lower to local+final phases, got %d top operators", tops)
	}
}

func TestUnionLowersToConcat(t *testing.T) {
	src := `
a = EXTRACT x:int FROM "data/a.tsv";
b = EXTRACT x:int FROM "data/b.tsv";
u = a UNION ALL b;
OUTPUT u TO "o";`
	res, _ := optimizeSrc(t, src, MapStats{}, nil)
	ops := physOps(res.Plan)
	if ops[PhysConcatUnion] != 1 {
		t.Errorf("union should lower to concat by default, ops=%v", ops)
	}
	res2, _ := optimizeSrc(t, src, MapStats{}, disableKinds(rules.KindImplConcatUnion))
	ops2 := physOps(res2.Plan)
	if ops2[PhysSortedUnion] != 1 {
		t.Errorf("sorted union should take over, ops=%v", ops2)
	}
}

func TestReduceShufflesByPartitionColumns(t *testing.T) {
	src := `
t = EXTRACT k:long, payload:string FROM "data/t.tsv";
r = REDUCE t ON k USING Sessionize PRODUCE k:long, cnt:long;
OUTPUT r TO "o";`
	st := MapStats{"data/t.tsv": {Rows: 1e6, NDV: map[string]float64{"k": 1e5}}}
	res, _ := optimizeSrc(t, src, st, nil)
	ops := physOps(res.Plan)
	if ops[PhysReduce] != 1 {
		t.Fatalf("reduce ops = %d", ops[PhysReduce])
	}
	// The reducer's input must be key-partitioned.
	for _, n := range res.Plan.Nodes() {
		if n.Op == PhysReduce {
			in := n.Inputs[0]
			if !in.IsExchange() && in.PartScheme != "hash:k" && in.PartScheme != "range:k" {
				t.Errorf("reduce input not key-partitioned: %s", in.PartScheme)
			}
		}
	}
}

func TestRecardinalizeCoversAllNodes(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	env := &EstimationEnv{Stats: joinFilterStats}
	rows := res.Plan.Recardinalize(nil, env, joinFilterStats)
	for _, n := range res.Plan.Nodes() {
		if n.ID >= len(rows) {
			t.Fatalf("node #%d missing from recardinalization", n.ID)
		}
		if rows[n.ID] < 1 {
			t.Errorf("rows for node #%d = %v, want a cardinality (>= 1)", n.ID, rows[n.ID])
		}
	}
}

func TestNodeCostNonNegative(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	for _, n := range res.Plan.Nodes() {
		var inRows []float64
		for _, in := range n.Inputs {
			inRows = append(inRows, in.EstRows)
		}
		if c := nodeCost(n, inRows, n.EstRows); c < 0 {
			t.Errorf("negative cost for %v: %v", n.Op, c)
		}
	}
}

// TestPlanSlabsDoNotAlias: a plan's nodes and their Inputs are carved from
// slabs; each Inputs is capped at its own length, so appending to one
// node's reallocates it and writes into no sibling's.
func TestPlanSlabsDoNotAlias(t *testing.T) {
	res, _ := optimizeSrc(t, joinFilterScript, joinFilterStats, nil)
	p := res.Plan
	nodes := p.Nodes()
	want := make([][]*PhysNode, len(nodes))
	for i, n := range nodes {
		want[i] = append([]*PhysNode(nil), n.Inputs...)
		if len(n.Inputs) != cap(n.Inputs) {
			t.Errorf("node #%d: Inputs has %d spare slots of the slab", n.ID, cap(n.Inputs)-len(n.Inputs))
		}
	}
	extra := &PhysNode{ID: p.IDBound(), Op: PhysFilter}
	for _, n := range nodes {
		n.Inputs = append(n.Inputs, extra)
	}
	for i, n := range nodes {
		got := n.Inputs[:len(n.Inputs)-1]
		if len(got) != len(want[i]) {
			t.Fatalf("node #%d: %d inputs, want %d", n.ID, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Errorf("node #%d input %d changed when a sibling's Inputs grew", n.ID, j)
			}
		}
	}
}

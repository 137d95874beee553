package span

import (
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
	"qoadvisor/internal/workload"
)

const spanScript = `
logs = EXTRACT uid:long, page:string, dur:int FROM "data/logs.tsv";
users = EXTRACT uid:long, region:string FROM "data/users.tsv";
clicks = SELECT uid, dur FROM logs WHERE dur > 100;
joined = SELECT l.uid, l.dur, u.region FROM clicks AS l JOIN users AS u ON l.uid == u.uid;
agg = SELECT region, SUM(dur) AS total FROM joined GROUP BY region ORDER BY total DESC TOP 10;
OUTPUT agg TO "out/agg.tsv";
`

func spanStats() optimizer.MapStats {
	return optimizer.MapStats{
		"data/logs.tsv":  {Rows: 5e6, NDV: map[string]float64{"uid": 1e5, "dur": 1000}},
		"data/users.tsv": {Rows: 1e5, NDV: map[string]float64{"uid": 1e5, "region": 40}},
	}
}

func computeSpan(t *testing.T) *Result {
	t.Helper()
	g, err := scope.CompileScript(spanScript)
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	res, err := Compute(g, cat, optimizer.Options{Catalog: cat, Stats: spanStats()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSpanIsNonEmpty(t *testing.T) {
	res := computeSpan(t)
	if res.Span.IsEmpty() {
		t.Fatal("span should not be empty for a join+agg job")
	}
	if res.Iterations < 1 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	if res.DefaultCost <= 0 {
		t.Errorf("default cost = %v", res.DefaultCost)
	}
}

func TestSpanExcludesRequiredRules(t *testing.T) {
	res := computeSpan(t)
	cat := rules.NewCatalog()
	for _, id := range res.Span.Bits() {
		if cat.Rule(id).Category == rules.Required {
			t.Errorf("required rule %d in span", id)
		}
	}
}

func TestSpanContainsDefaultSignatureRules(t *testing.T) {
	res := computeSpan(t)
	cat := rules.NewCatalog()
	for _, id := range res.DefaultSignature.Bits() {
		if cat.Rule(id).Category == rules.Required {
			continue
		}
		if !res.Span.Get(id) {
			t.Errorf("fired rule %d missing from span", id)
		}
	}
}

func TestSpanDiscoversAlternatives(t *testing.T) {
	// The fix point must discover rules beyond the default signature:
	// disabling the chosen implementations forces alternatives to fire.
	res := computeSpan(t)
	var def rules.Bitset
	for _, id := range res.DefaultSignature.Bits() {
		def.Set(id)
	}
	extra := res.Span.Minus(def)
	if extra.IsEmpty() {
		t.Error("span should contain alternative rules beyond the default signature")
	}
}

func TestSpanIsDeterministic(t *testing.T) {
	a := computeSpan(t)
	b := computeSpan(t)
	if !a.Span.Equal(b.Span) {
		t.Error("span not deterministic")
	}
}

func TestSpanAcrossWorkloadTemplates(t *testing.T) {
	gen, err := workload.New(workload.Config{Seed: 4, NumTemplates: 20})
	if err != nil {
		t.Fatal(err)
	}
	cat := rules.NewCatalog()
	sizes := make([]int, 0, 20)
	for _, tpl := range gen.Templates() {
		j, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compute(j.Graph, cat, optimizer.Options{Catalog: cat, Stats: j.Stats, Tokens: j.Tokens})
		if err != nil {
			t.Fatalf("template %s: %v", tpl.ID, err)
		}
		if res.Iterations < 1 || res.Iterations > maxIterations {
			t.Errorf("template %s: %d iterations, want 1..%d", tpl.ID, res.Iterations, maxIterations)
		}
		sizes = append(sizes, res.Span.Count())
	}
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	avg := float64(sum) / float64(len(sizes))
	// The paper reports an average span around 10 with a long tail;
	// our simulator should land in a sane band.
	if avg < 2 || avg > 60 {
		t.Errorf("average span size %.1f out of plausible band", avg)
	}
}

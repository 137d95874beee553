package optimizer_test

import (
	"math"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
)

// TestRecardinalizeOverwritesDst: Recardinalize writes into dst's storage
// whatever dst held, so one dirty, oversized scratch slice reused across
// every ledger plan gives, bit for bit, the row counts a nil dst gives.
func TestRecardinalizeOverwritesDst(t *testing.T) {
	cat := rules.NewCatalog()
	def := cat.DefaultConfig()
	dst := make([]float64, 4096)
	plans := 0
	for _, tpl := range ledgerTemplates(t) {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(job.Graph, def, job.CompileOptions(cat))
		if err != nil {
			continue
		}
		dst = dst[:cap(dst)]
		for i := range dst {
			dst[i] = math.NaN()
		}
		want := res.Plan.Recardinalize(nil, job.Truth, job.Stats)
		got := res.Plan.Recardinalize(dst, job.Truth, job.Stats)
		if len(got) != len(want) || len(got) != res.Plan.IDBound() {
			t.Fatalf("%s: %d row counts into dst, %d into nil, IDBound %d", tpl.ID, len(got), len(want), res.Plan.IDBound())
		}
		if &got[0] != &dst[0] {
			t.Fatalf("%s: Recardinalize did not write into dst's storage", tpl.ID)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: node #%d has %v rows into a dirty dst, %v into nil", tpl.ID, i, got[i], want[i])
			}
		}
		dst = got
		plans++
	}
	if plans == 0 {
		t.Fatal("no ledger template compiled")
	}
}

package optimizer_test

import (
	"slices"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// TestStoreRewriteMatchesHeap: on every ledger template, under the
// default configuration and every single flip, the rewrite kept in a
// scope.Store is the rewrite kept on the heap — the same graph (String,
// and node IDs in Nodes order up to IDBound), TemplateHash, signature and
// error. One store per template, its first chunks counted for one copy of
// the bound graph, keeps every configuration's rewrite, so the copies
// cross chunk boundaries and skip chunk tails; the templates run on a
// par.For pool, sharing the pooled rewriters. Under -race (CI's offline
// stress step) the first four templates stand for the population.
func TestStoreRewriteMatchesHeap(t *testing.T) {
	cat := rules.NewCatalog()
	configs := singleFlipConfigs(cat)
	tpls := ledgerTemplates(t)
	if raceEnabled {
		tpls = tpls[:4]
	}
	par.For(len(tpls), func(i int) {
		job, err := tpls[i].Instantiate(1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		p, err := scope.Prepare(tpls[i].ScriptPattern)
		if err != nil {
			t.Error(err)
			return
		}
		var slabs scope.Slabs
		slabs.Reserve(p)
		store := scope.NewStore(&slabs)
		opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
		for _, cfg := range configs {
			want, wantSig, wantErr := optimizer.RewriteInto(job.Graph, cfg, opts, nil)
			got, gotSig, gotErr := optimizer.RewriteInto(job.Graph, cfg, opts, store)
			if diff := sameRewrite(got, gotSig, gotErr, want, wantSig, wantErr); diff != "" {
				t.Errorf("%s %v: the rewrite kept in a store differs from the heap's: %s", job.ID, cfg, diff)
				return
			}
		}
	})
}

// sameRewrite reports how a rewrite kept in a store differs from the same
// rewrite kept on the heap.
func sameRewrite(got *scope.Graph, gotSig rules.Signature, gotErr error, want *scope.Graph, wantSig rules.Signature, wantErr error) string {
	switch {
	case errString(gotErr) != errString(wantErr):
		return "error " + errString(gotErr) + ", heap " + errString(wantErr)
	case !gotSig.Equal(wantSig.Bitset):
		return "signature " + gotSig.String() + ", heap " + wantSig.String()
	case gotErr != nil:
		return ""
	case got.String() != want.String():
		return "graph\n" + got.String() + "heap\n" + want.String()
	case got.TemplateHash() != want.TemplateHash():
		return "template hash differs"
	case got.IDBound() != want.IDBound() || !slices.Equal(nodeIDs(got), nodeIDs(want)):
		return "node IDs differ"
	}
	return ""
}

func nodeIDs(g *scope.Graph) []int {
	var ids []int
	for _, n := range g.Nodes() {
		ids = append(ids, n.ID)
	}
	return ids
}

package optimizer_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// singleFlipConfigs is the default configuration and every single flip of
// a non-required rule.
func singleFlipConfigs(cat *rules.Catalog) []rules.Config {
	def := cat.DefaultConfig()
	configs := []rules.Config{def}
	for _, r := range cat.All() {
		if r.Category != rules.Required {
			configs = append(configs, def.WithFlip(cat.FlipFor(r.ID)))
		}
	}
	return configs
}

// sameCompilation reports how a compilation through a cache differs from
// a fresh one: in the error, the rewritten graph, the signature, the
// estimated cost or the physical plan. Graphs compare by reflect.DeepEqual
// from the roots, which sees every field of every node, as renderGraph
// does, at a fraction of its cost; renderGraph shows a difference.
func sameCompilation(got *optimizer.Result, gotErr error, want *optimizer.Result, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return "error " + errString(gotErr) + ", fresh " + errString(wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return "error " + gotErr.Error() + ", fresh " + wantErr.Error()
		}
		return ""
	case got.Logical.IDBound() != want.Logical.IDBound() || !reflect.DeepEqual(got.Logical.Roots, want.Logical.Roots):
		return "rewritten graph\n" + renderGraph(got.Logical) + "fresh\n" + renderGraph(want.Logical)
	case !got.Signature.Equal(want.Signature.Bitset):
		return "signature " + got.Signature.String() + ", fresh " + want.Signature.String()
	case got.EstCost != want.EstCost:
		return "estimated cost differs"
	case !reflect.DeepEqual(got.Plan, want.Plan):
		return "physical plan differs"
	}
	return ""
}

// unresolvedRefs lists every reference of a rewritten graph's Filter
// predicates and Sort/Top keys that names no column of the node's input,
// and of its scan predicates that names none of the scan's own: a rule
// that moves a predicate or a key below a rename must rename it.
func unresolvedRefs(g *scope.Graph) []string {
	var bad []string
	for _, n := range g.Nodes() {
		in, refs := n, []*scope.ColRef(nil)
		switch n.Kind {
		case scope.OpScan:
			refs = scope.CollectColRefs(n.Pred, nil)
		case scope.OpFilter:
			in, refs = n.Inputs[0], scope.CollectColRefs(n.Pred, nil)
		case scope.OpSort, scope.OpTop:
			in = n.Inputs[0]
			for _, k := range n.SortKeys {
				refs = append(refs, k.Col)
			}
		}
		for _, r := range refs {
			if _, ok := in.FindCol(r.Name); !ok {
				bad = append(bad, fmt.Sprintf("%s #%d: %s is no column of %s", n.Label(), n.ID, r.Name, in.Label()))
			}
		}
	}
	return bad
}

func errString(err error) string {
	if err == nil {
		return "nil"
	}
	return err.Error()
}

// TestCertifiedRewriteMatchesFresh is the reuse certificate's oracle. On
// every ledger template, the default configuration and every single flip
// of a non-required rule are compiled through one cache and uncached; the
// two must agree on everything a compilation returns, and every pushed
// predicate and sort key must resolve (unresolvedRefs). Each configuration
// is looked up once, so every hit is a rewrite reused by certificate, and
// at least one must be. TestCertifiedRewriteConcurrent is its raced
// counterpart.
func TestCertifiedRewriteMatchesFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential, and 110,000 compilations: nothing for the race detector to see")
	}
	cat := rules.NewCatalog()
	configs := singleFlipConfigs(cat)
	var rewrites, certified uint64
	for _, tpl := range ledgerTemplates(t) {
		job, err := tpl.Instantiate(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
		shared := fresh
		shared.Cache = new(optimizer.CompileCache)
		for _, cfg := range configs {
			want, wantErr := optimizer.Optimize(job.Graph, cfg, fresh)
			got, gotErr := optimizer.Optimize(job.Graph, cfg, shared)
			if diff := sameCompilation(got, gotErr, want, wantErr); diff != "" {
				t.Fatalf("%s %v: cached compilation differs from a fresh one: %s", tpl.ID, cfg, diff)
			}
			if wantErr == nil {
				if bad := unresolvedRefs(want.Logical); len(bad) > 0 {
					t.Fatalf("%s %v: unresolved references after the rewrite:\n%s", tpl.ID, cfg, strings.Join(bad, "\n"))
				}
			}
		}
		st := shared.Cache.Stats()
		rewrites += st.Misses
		certified += st.Hits
	}
	t.Logf("%d rewrites run, %d reused by certificate", rewrites, certified)
	if certified == 0 {
		t.Error("no lookup was served by a certificate")
	}
}

// checkCertifiedCompile compiles g under every configuration through one
// cache and holds each compilation to an uncached one, and an Estimate
// through the cache to the cached compilation. It is the part of
// FuzzCompileOptimize that exercises the reuse certificate.
func checkCertifiedCompile(t *testing.T, g *scope.Graph, configs []rules.Config) {
	t.Helper()
	shared := optimizer.Options{Cache: new(optimizer.CompileCache)}
	for _, cfg := range configs {
		want, wantErr := optimizer.Optimize(g, cfg, optimizer.Options{})
		got, gotErr := optimizer.Optimize(g, cfg, shared)
		if diff := sameCompilation(got, gotErr, want, wantErr); diff != "" {
			t.Fatalf("cached compilation differs from a fresh one: %s", diff)
		}
		sig, cost, err := optimizer.Estimate(g, cfg, shared)
		if diff := sameEstimate(sig, cost, err, got, gotErr); diff != "" {
			t.Fatalf("cached Estimate differs from the cached compilation: %s", diff)
		}
	}
}

// TestCertifiedRewriteConcurrent shares one cache among goroutines that
// compile one job under every single-flip configuration, each starting at
// another point of the list, so that certificate lookups and
// certifications interleave (CI runs it under -race, repeatedly).
// Every compilation must equal the fresh one.
func TestCertifiedRewriteConcurrent(t *testing.T) {
	cat := rules.NewCatalog()
	configs := singleFlipConfigs(cat)
	job, err := ledgerTemplates(t)[0].Instantiate(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := optimizer.Options{Catalog: cat, Stats: job.Stats, Tokens: job.Tokens}
	want := make([]*optimizer.Result, len(configs))
	wantErr := make([]error, len(configs))
	for i, cfg := range configs {
		want[i], wantErr[i] = optimizer.Optimize(job.Graph, cfg, opts)
	}
	opts.Cache = new(optimizer.CompileCache)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range configs {
				i := (k + w*len(configs)/workers) % len(configs)
				got, gotErr := optimizer.Optimize(job.Graph, configs[i], opts)
				if diff := sameCompilation(got, gotErr, want[i], wantErr[i]); diff != "" {
					t.Errorf("%v: cached compilation differs from a fresh one: %s", configs[i], diff)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := opts.Cache.Stats(); st.Hits == 0 {
		t.Errorf("stats = %+v: no lookup reused a rewrite", st)
	}
}

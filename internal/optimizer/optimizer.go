package optimizer

import (
	"fmt"
	"sync"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// Options configures a compilation.
type Options struct {
	// Catalog is the rule catalog; nil uses the canonical 256-rule catalog.
	Catalog *rules.Catalog
	// Stats provides estimated base-table statistics; nil knows no table
	// (every scan estimates EstimationEnv's default row count).
	Stats StatsProvider
	// Tokens is the maximum degree of parallelism available to the job
	// (the SCOPE "token" allocation). Zero means DefaultTokens.
	Tokens int
	// Cache, when non-nil, memoizes the logical phase (rewrite fixpoint +
	// experimental-validity check) of the input graph, reusing a rewrite
	// under every configuration that provably rewrites the same way (see
	// CompileCache). Physical lowering always re-runs, so cached and
	// uncached compilation produce identical Results, each with a Plan of
	// its own that no later compilation writes into. A cache belongs to
	// one job instance and comes with its Stats from
	// (*workload.Job).CompileOptions.
	Cache *CompileCache
}

// DefaultTokens is the default per-job parallelism budget.
const DefaultTokens = 200

// CompileFailure is returned when a rule configuration cannot produce a
// valid plan — the "recompilation failures" the paper counts in Table 3.
// It keeps what failed, not a message: most callers only test for a
// failure and drop it, so Error formats the message when it is read.
type CompileFailure struct {
	kind    failKind
	rule    rules.Rule   // the rule a configuration rejection names
	operand string       // a table path, or a partitioning or sort key
	cond    scope.Expr   // a join condition
	op      scope.OpKind // an operator with no lowering
}

// failKind is what a CompileFailure reports, each kind with its message.
type failKind uint8

const (
	failRequiredOff failKind = iota
	failUnsupportedFlip
	failInvalidPlan
	failNoPartitioning
	failRangeOff
	failNoLowering
	failNoScan
	failNoJoin
	failNoAgg
	failNoUnion
	failSortOff
	failNoTopN
)

// failFormats is each kind's message, formatted with the operand its
// kind keeps: the rule's name and ID, a key, a path, a condition or an
// operator.
var failFormats = [...]string{
	failRequiredOff:     "required rule %s (R%03d) is disabled",
	failUnsupportedFlip: "unsupported rule combination: flipping %s (R%03d) on this plan shape",
	failInvalidPlan:     "experimental rule %s (R%03d) produced an invalid plan",
	failNoPartitioning:  "no partitioning implementation enabled for key %q",
	failRangeOff:        "range partitioner disabled for key %q",
	failNoLowering:      "no lowering for operator %s",
	failNoScan:          "no scan implementation enabled for %s",
	failNoJoin:          "no join implementation enabled for %s",
	failNoAgg:           "no aggregation implementation enabled",
	failNoUnion:         "no union implementation enabled",
	failSortOff:         "sort implementation disabled for keys %s",
	failNoTopN:          "no top-n implementation enabled",
}

func (e *CompileFailure) Error() string {
	format := failFormats[e.kind]
	reason := format
	switch e.kind {
	case failRequiredOff, failUnsupportedFlip, failInvalidPlan:
		reason = fmt.Sprintf(format, e.rule.Name, e.rule.ID)
	case failNoPartitioning, failRangeOff, failNoScan, failSortOff:
		reason = fmt.Sprintf(format, e.operand)
	case failNoJoin:
		reason = fmt.Sprintf(format, e.cond)
	case failNoLowering:
		reason = fmt.Sprintf(format, e.op)
	}
	return "optimizer: compilation failed: " + reason
}

// IsCompileFailure reports whether err is a CompileFailure.
func IsCompileFailure(err error) bool {
	_, ok := err.(*CompileFailure)
	return ok
}

// Result is the output of a compilation: a physical plan, the estimated
// cost, and the rule signature recording every rule that fired.
type Result struct {
	Plan      *Plan
	Logical   *scope.Graph // post-rewrite logical DAG
	Signature rules.Signature
	EstCost   float64
}

// canonicalCatalog is the catalog a nil Options.Catalog stands for, built
// on first use: catalogs are immutable, so every such call shares it.
var canonicalCatalog = sync.OnceValue(rules.NewCatalog)

// Optimize compiles the logical DAG under the given rule configuration.
// The input graph is never mutated: all rewrites run on a clone. When
// opts.Cache is set, the rewritten logical DAG is reused across calls on
// the same graph under every configuration it certifies; the physical
// lowering phase (implBuilder) treats logical nodes as strictly
// read-only — a guarantee exercised under -race by
// TestCachedLogicalGraphSharedLoweringRace — so a cached clone can be
// lowered concurrently by many goroutines.
func Optimize(g *scope.Graph, cfg rules.Config, opts Options) (*Result, error) {
	work, b, err := compile(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	res := b.publish(work)
	b.release()
	return res, nil
}

// Estimate is Optimize for a caller that keeps no plan: the same
// compilation, failing exactly when Optimize fails, that returns only
// the Result's Signature and EstCost and publishes nothing, so with a
// warm opts.Cache it allocates nothing (TestEstimateMatchesOptimize,
// TestEstimateAllocBudget).
func Estimate(g *scope.Graph, cfg rules.Config, opts Options) (rules.Signature, float64, error) {
	_, b, err := compile(g, cfg, opts)
	if err != nil {
		return rules.Signature{}, 0, err
	}
	sig, cost := b.sig, b.cost
	b.release()
	return sig, cost, nil
}

// Use is Optimize for a caller that reads the plan only while fn runs:
// the same compilation, failing exactly when Optimize fails, that hands
// fn a Result whose Plan is the pooled builder's own scratch, published
// nowhere, so with a warm opts.Cache it allocates nothing
// (TestEstimateMatchesOptimize, TestUseAllocBudget). The Result and
// everything it reaches but Logical are valid only until fn returns:
// then the builder is pooled, its plan headers zeroed, and the next
// compilation reuses its scratch, so fn must keep no pointer into them
// (TestPublishedPlanOwnsItsMemory). Use returns the compilation's error;
// fn runs only when it is nil.
func Use(g *scope.Graph, cfg rules.Config, opts Options, fn func(*Result)) error {
	work, b, err := compile(g, cfg, opts)
	if err != nil {
		return err
	}
	fn(b.borrow(work))
	b.release()
	return nil
}

// compile runs the compilation Optimize, Estimate and Use share: the up-front
// rejections, the logical phase (through opts.Cache when set) and the
// lowering. It returns the rewritten graph and the pooled builder holding
// the finished, unpublished plan, which the caller releases.
func compile(g *scope.Graph, cfg rules.Config, opts Options) (*scope.Graph, *implBuilder, error) {
	cat := opts.Catalog
	if cat == nil {
		cat = canonicalCatalog()
	}
	// Required rules must be enabled to obtain valid plans.
	for _, r := range cat.Rules(rules.Required) {
		if !cfg.Enabled(r.ID) {
			return nil, nil, &CompileFailure{kind: failRequiredOff, rule: r}
		}
	}
	// Hinted compilations (single-rule deviations from the default) hit
	// deterministic "unsupported rule combination" rejections on a slice
	// of plan shapes, modelling the recompilation failures the paper
	// counts in Table 3 (13.9%-18% of flips).
	def := cat.DefaultConfig()
	if on, off := cfg.Minus(def.Bitset), def.Minus(cfg.Bitset); on.Count()+off.Count() == 1 {
		var buf [1]int
		id := on.Union(off).AppendBits(buf[:0])[0]
		h := g.TemplateHash() ^ (uint64(id+1) * 0x9e3779b97f4a7c15)
		if h%6 == 3 {
			return nil, nil, &CompileFailure{kind: failUnsupportedFlip, rule: cat.Rule(id)}
		}
	}

	var work *scope.Graph
	var sig rules.Signature
	var err error
	if opts.Cache != nil {
		work, sig, err = opts.Cache.logical(g, cfg, cat, opts.Stats)
	} else {
		work, sig, _, err = rewriteLogical(g, cfg, cat, opts.Stats, nil)
	}
	if err != nil {
		return nil, nil, err
	}

	tokens := opts.Tokens
	if tokens <= 0 {
		tokens = DefaultTokens
	}
	b, err := lower(work, cfg, cat, sig, opts.Stats, tokens)
	if err != nil {
		return nil, nil, err
	}
	return work, b, nil
}

// rewriteLogical runs the logical phase of a compilation on a pooled
// rewriter: copy the input DAG into the rewriter's scratch, apply the
// enabled rewrites to fixpoint, copy the result into dst — a CompileCache's
// store, or the heap when dst is nil — and run the experimental validity
// check. The returned graph is final — nothing downstream (the
// implBuilder, the execution simulator, view building) mutates logical
// nodes, which is what makes the result cacheable and shareable.
//
// asked is the set of rules whose setting the phase read: every rule
// ruleTable.pick answered for, the fired ones among them. The rewrite
// reads cfg nowhere else, so its graph, signature and error are a function
// of g, stats and cfg ∩ asked — the certificate CompileCache reuses it by.
func rewriteLogical(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, stats StatsProvider, dst *scope.Store) (work *scope.Graph, sig rules.Signature, asked rules.Bitset, err error) {
	rw := rewriterPool.Get().(*rewriter)
	work, sig, asked = rw.rewrite(rw.scratch.Clone(g), cfg, cat, stats, dst)
	rw.release()
	if err := checkExperimentalValidity(work, cfg, cat, sig); err != nil {
		return nil, sig, asked, err
	}
	return work, sig, asked, nil
}

// rewrite rewrites the working copy wc in place and returns a copy of it
// in dst (Store.Clone: the heap when dst is nil), holding only the nodes
// still reachable and none of wc's memory.
func (rw *rewriter) rewrite(wc *scope.Graph, cfg rules.Config, cat *rules.Catalog, stats StatsProvider, dst *scope.Store) (*scope.Graph, rules.Signature, rules.Bitset) {
	rw.sig = rules.Signature{}
	for _, r := range cat.Rules(rules.Required) {
		rw.sig.Record(r.ID) // normalization always runs
	}
	rw.estimation = EstimationEnv{Stats: stats}
	rw.ruleTable = ruleTable{cat: cat, cfg: cfg, sig: &rw.sig}
	rw.g, rw.stats, rw.env = wc, stats, &rw.estimation
	rw.noMerge = rw.noMerge[:0]
	rw.run()
	return dst.Clone(rw.g), rw.sig, rw.asked
}

// checkExperimentalValidity models the riskiness of off-by-default rules:
// experimental rewrites occasionally produce plans the engine rejects.
// The failure is deterministic per (rule, site) so that recompilation of
// the same job under the same configuration is reproducible. It reads cfg
// only for rules that fired, which the rewrite asked about.
func checkExperimentalValidity(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig rules.Signature) error {
	for _, r := range cat.Rules(rules.OffByDefault) {
		if !sig.Fired(r.ID) || !cfg.Enabled(r.ID) {
			continue
		}
		// A fired experimental rule fails validation on a deterministic
		// slice of plan shapes.
		h := g.TemplateHash() ^ (uint64(r.ID) * 0x9e3779b97f4a7c15)
		if h%23 == 5 {
			return &CompileFailure{kind: failInvalidPlan, rule: r}
		}
	}
	return nil
}

// ruleTable is the rule-selection helper the rewriter and the implBuilder
// share: sibling variants of a kind partition operator sites by gate hash,
// so exactly one catalog rule is responsible for a given (kind, site) pair.
// It is the only reader of cfg, and asked records what it read.
type ruleTable struct {
	cat   *rules.Catalog
	cfg   rules.Config
	sig   *rules.Signature
	asked rules.Bitset // the rules pick answered for
}

// pick returns the rule responsible for (kind, gate) and whether it is
// enabled.
func (t *ruleTable) pick(kind rules.Kind, gate uint64) (rules.Rule, bool) {
	rs := t.cat.OfKind(kind)
	if len(rs) == 0 {
		return rules.Rule{}, false
	}
	r := rs[gate%uint64(len(rs))]
	t.asked.Set(r.ID)
	return r, t.cfg.Enabled(r.ID)
}

// fire records a firing; a fired rule counts as asked.
func (t *ruleTable) fire(r rules.Rule) {
	t.sig.Record(r.ID)
	t.asked.Set(r.ID)
}

// cardPool recycles the engines Recardinalize runs, so their memo and
// scratch grow once per process rather than once per call.
var cardPool = sync.Pool{New: func() any { return new(cardEngine) }}

// Recardinalize recomputes per-node row counts of a physical plan under a
// different cardinality environment (typically the execution simulator's
// ground truth), indexed by PhysNode.ID. Exchanges inherit their input's
// row count.
//
// It writes the counts into dst's storage, resized to the plan's IDBound,
// and returns that slice: whatever dst held is overwritten, an ID no node
// has reads 0, and the result equals Recardinalize(nil, ...) bit for bit.
// dst may be nil, or scratch the caller reuses for every plan. The engine
// it runs comes from a pool and goes back holding neither env nor stats.
func (p *Plan) Recardinalize(dst []float64, env Environment, stats StatsProvider) []float64 {
	nodes := p.Nodes() // topological order: inputs first
	bound := 0
	for _, n := range nodes {
		if n.Logical != nil && n.Logical.ID >= bound {
			bound = n.Logical.ID + 1
		}
	}
	engine := cardPool.Get().(*cardEngine)
	engine.reset(env, stats, bound)
	out := zeroed(dst, p.nextID)
	for _, n := range nodes {
		switch {
		case n.Logical != nil:
			out[n.ID] = engine.rows(n.Logical)
		case len(n.Inputs) > 0:
			out[n.ID] = out[n.Inputs[0].ID]
		default:
			out[n.ID] = 1
		}
	}
	engine.release()
	cardPool.Put(engine)
	return out
}

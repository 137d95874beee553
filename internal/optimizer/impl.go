package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// rowsPerPartition is the target number of rows a single vertex processes.
const rowsPerPartition = 200_000

// implBuilder lowers the rewritten logical DAG into a physical plan,
// choosing among enabled implementation rules per operator site, inserting
// exchanges, applying tuning rules, assigning stages and costing the plan.
// What it keeps per node is indexed by node ID and is scratch that outlives
// the build in implPool; the Plan it returns owns none of it.
type implBuilder struct {
	table  ruleTable
	est    cardEngine
	tokens int

	// sig and estimation back table.sig and est's environment in
	// lowerPlan, so that a compilation's signature and environment live in
	// the pool rather than on the heap.
	sig        rules.Signature
	estimation EstimationEnv

	plan *Plan
	memo []*PhysNode // by logical node ID: the node's lowering

	gates  []uint64  // scratch: tuning gates, by position in plan order
	marked []bool    // scratch: stage assignment's visited marks, by physical ID
	counts []int     // scratch: per stage, nodes then upstream stage IDs
	inRows []float64 // scratch: one node's input cardinalities
}

var implPool = sync.Pool{New: func() any { return new(implBuilder) }}

// lowerPlan lowers g, which it only reads, on a pooled builder under the
// optimizer's estimation environment. It returns sig with the rules the
// lowering fired added.
func lowerPlan(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig rules.Signature, stats StatsProvider, tokens int) (*Plan, rules.Signature, error) {
	b := implPool.Get().(*implBuilder)
	b.sig, b.estimation = sig, EstimationEnv{Stats: stats}
	b.init(g, cfg, cat, &b.sig, stats, &b.estimation, tokens)
	plan, err := b.build(g)
	sig = b.sig
	// Drop what points into the caller's world before pooling.
	b.table, b.plan, b.estimation = ruleTable{}, nil, EstimationEnv{}
	b.est.reset(nil, nil, 0)
	clear(b.memo)
	implPool.Put(b)
	return plan, sig, err
}

// init readies b, new or pooled, to lower g.
func (b *implBuilder) init(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig *rules.Signature, stats StatsProvider, env Environment, tokens int) {
	b.table = ruleTable{cat: cat, cfg: cfg, sig: sig}
	b.est.reset(env, stats, g.IDBound())
	b.tokens = tokens
	b.plan = &Plan{}
	b.memo = zeroed(b.memo, g.IDBound())
}

func (b *implBuilder) build(g *scope.Graph) (*Plan, error) {
	for _, root := range g.Roots {
		pn, err := b.buildNode(root)
		if err != nil {
			return nil, err
		}
		b.plan.Roots = append(b.plan.Roots, pn)
	}
	// Tuning and stage assignment set fields; they add no node.
	b.plan.order = b.plan.walk()
	b.applyTuning()
	b.assignStages()
	b.computeCost()
	return b.plan, nil
}

func (b *implBuilder) partitionsFor(rows float64) int {
	return min(max(int(math.Ceil(rows/rowsPerPartition)), 1), b.tokens)
}

func fail(format string, args ...interface{}) error {
	return &CompileFailure{Reason: fmt.Sprintf(format, args...)}
}

// newPhys allocates a physical node carrying over sizing from the logical
// node and its input.
func (b *implBuilder) newPhys(op PhysOp, ln *scope.Node, inputs ...*PhysNode) *PhysNode {
	n := b.plan.NewNode(op, ln, inputs...)
	if ln != nil {
		n.EstRows = b.est.rows(ln)
		n.RowWidth = ln.RowWidth()
	} else if len(inputs) > 0 {
		n.EstRows = inputs[0].EstRows
		n.RowWidth = inputs[0].RowWidth
	}
	if len(inputs) > 0 {
		n.Partitions = inputs[0].Partitions
		n.PartScheme = inputs[0].PartScheme
	}
	return n
}

// partScheme names the output partitioning of an exchange.
func partScheme(kind ExchangeKind, key string) string {
	switch kind {
	case ExchangeHash:
		return "hash:" + key
	case ExchangeRange:
		return "range:" + key
	case ExchangeBroadcast:
		return "bcast"
	case ExchangeGather:
		return "single"
	case ExchangeRoundRobin:
		return "rr"
	}
	return ""
}

// exchange inserts an exchange of the given kind above in, unless in
// already carries the required partitioning scheme.
func (b *implBuilder) exchange(in *PhysNode, kind ExchangeKind, key string, parts int, siteGate uint64) (*PhysNode, error) {
	if kind == ExchangeHash || kind == ExchangeRange {
		// Reuse existing co-location: hash or range partitioning on the
		// same key both co-locate equal keys.
		if in.PartScheme == "hash:"+key || in.PartScheme == "range:"+key {
			return in, nil
		}
	} else if kind != ExchangeBroadcast && in.PartScheme == partScheme(kind, key) {
		return in, nil
	}
	return b.forceExchange(in, kind, key, parts, siteGate)
}

// forceExchange inserts an exchange even when the scheme already matches
// (used for broadcast and partition-count alignment). Hash exchanges fall
// back to range partitioning when the hash partitioner is disabled for
// the site; a disabled round-robin rebalance yields no node and no error.
func (b *implBuilder) forceExchange(in *PhysNode, kind ExchangeKind, key string, parts int, siteGate uint64) (*PhysNode, error) {
	switch kind {
	case ExchangeHash:
		if r, ok := b.table.pick(rules.KindImplHashPartition, siteGate); ok {
			b.table.fire(r)
		} else if r, ok := b.table.pick(rules.KindImplRangePartition, siteGate); ok {
			// Range partitioning also co-locates equal keys.
			b.table.fire(r)
			kind = ExchangeRange
		} else {
			return nil, fail("no partitioning implementation enabled for key %q", key)
		}
	case ExchangeRange:
		r, ok := b.table.pick(rules.KindImplRangePartition, siteGate)
		if !ok {
			return nil, fail("range partitioner disabled for key %q", key)
		}
		b.table.fire(r)
	case ExchangeRoundRobin:
		r, ok := b.table.pick(rules.KindImplRoundRobin, siteGate)
		if !ok {
			return nil, nil // optional rebalance: silently skipped
		}
		b.table.fire(r)
	case ExchangeGather:
		parts = 1
	}
	ex := b.newPhys(PhysExchange, nil, in) // sized as its input
	ex.Exchange = kind
	ex.Partitions = parts
	ex.PartScheme = partScheme(kind, key)
	ex.GateHint = siteGate
	return ex, nil
}

func (b *implBuilder) buildNode(n *scope.Node) (*PhysNode, error) {
	if pn := b.memo[n.ID]; pn != nil {
		return pn, nil
	}
	pn, err := b.lower(n)
	if err != nil {
		return nil, err
	}
	b.memo[n.ID] = pn
	return pn, nil
}

// pipelinedOp maps the logical operators that lower to one physical
// operator over their input, whatever the rule configuration.
var pipelinedOp = [scope.OpOutput + 1]PhysOp{
	scope.OpProject: PhysProject, scope.OpProcess: PhysProcess, scope.OpOutput: PhysOutput,
}

func (b *implBuilder) lower(n *scope.Node) (*PhysNode, error) {
	switch n.Kind {
	case scope.OpScan:
		return b.lowerScan(n)
	case scope.OpFilter:
		return b.lowerFilter(n)
	case scope.OpProject, scope.OpProcess, scope.OpOutput:
		in, err := b.buildNode(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return b.newPhys(pipelinedOp[n.Kind], n, in), nil
	case scope.OpJoin:
		return b.lowerJoin(n)
	case scope.OpAgg:
		return b.lowerAgg(n)
	case scope.OpDistinct:
		return b.lowerDistinct(n)
	case scope.OpUnion:
		return b.lowerUnion(n)
	case scope.OpSort:
		return b.lowerSort(n)
	case scope.OpTop:
		return b.lowerTop(n)
	case scope.OpReduce:
		return b.lowerReduce(n)
	default:
		return nil, fail("no lowering for operator %s", n.Kind)
	}
}

func (b *implBuilder) lowerScan(n *scope.Node) (*PhysNode, error) {
	g := gate(n)
	baseRows := b.est.env.BaseRows(n.TablePath)

	cands := make([]implChoice, 0, 3) // on the stack
	outRows := b.est.rows(n)
	width, baseWidth := float64(n.RowWidth()), float64(n.BaseWidth)
	cands = b.offer(cands, rules.KindImplRowScan, g, PhysRowScan, scanCost(PhysRowScan, outRows, width, baseWidth))
	cands = b.offer(cands, rules.KindImplColumnScan, g, PhysColumnScan, scanCost(PhysColumnScan, outRows, width, baseWidth))
	// An index seek is only feasible for selective pushed-down equality
	// predicates (simulating SCOPE structured streams).
	if n.Pred != nil && hasEqualityConjunct(n.Pred) && outRows < baseRows*0.05 {
		cands = b.offer(cands, rules.KindImplIndexSeek, g, PhysIndexSeek, scanCost(PhysIndexSeek, outRows, width, baseWidth))
	}
	if len(cands) == 0 {
		return nil, fail("no scan implementation enabled for %s", n.TablePath)
	}
	best := cheapest(cands)
	b.table.fire(best.rule)

	pn := b.newPhys(best.op, n)
	pn.BaseWidth = n.BaseWidth
	pn.PartScheme = "rr"
	readRows := baseRows
	if best.op == PhysIndexSeek {
		readRows = outRows
	}
	pn.Partitions = b.partitionsFor(readRows)
	return pn, nil
}

func hasEqualityConjunct(pred scope.Expr) bool {
	be, ok := pred.(*scope.BinaryExpr)
	if ok && be.Op == "AND" {
		return hasEqualityConjunct(be.Left) || hasEqualityConjunct(be.Right)
	}
	return ok && be.Op == "=="
}

func (b *implBuilder) lowerFilter(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	pn := b.newPhys(PhysFilter, n, in)
	// Rebalance after very selective filters to reclaim vertices.
	if pn.EstRows < in.EstRows/8 && in.Partitions > 4 {
		ex, err := b.exchange(pn, ExchangeRoundRobin, "", b.partitionsFor(pn.EstRows), gate(n))
		if err != nil {
			return nil, err
		}
		if ex != nil {
			return ex, nil
		}
	}
	return pn, nil
}

// implChoice is one physical alternative for an operator site. Its cost
// uses the plan cost model's formulas, so that implementation choice is
// greedy with respect to the reported estimated cost.
type implChoice struct {
	op   PhysOp
	rule rules.Rule
	cost float64
}

// offer appends op at cost to cands when the rule of kind that governs
// site g is enabled.
func (b *implBuilder) offer(cands []implChoice, kind rules.Kind, g uint64, op PhysOp, cost float64) []implChoice {
	if r, ok := b.table.pick(kind, g); ok {
		cands = append(cands, implChoice{op, r, cost})
	}
	return cands
}

// cheapest returns the first alternative of least cost; cands is not empty.
func cheapest(cands []implChoice) implChoice {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	return best
}

func (b *implBuilder) lowerJoin(n *scope.Node) (*PhysNode, error) {
	left, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	right, err := b.buildNode(n.Inputs[1])
	if err != nil {
		return nil, err
	}
	g := gate(n)
	equi := HasEquiCond(n.JoinCond)
	leftKey, rightKey := equiKeys(n)

	build, probe := right, left
	if n.BuildLeft {
		build, probe = left, right
	}
	l, r := left.EstRows, right.EstRows
	lw, rw := float64(left.RowWidth), float64(right.RowWidth)
	buildRows := build.EstRows
	bw := float64(build.RowWidth)
	probeParts := probe.Partitions

	cands := make([]implChoice, 0, 4) // on the stack
	if equi {
		shuffle := (l*lw + r*rw) * costExchangePerB
		cands = b.offer(cands, rules.KindImplHashJoin, g, PhysHashJoin, shuffle+buildRows*costHashBuildRow+(l+r))
		sortCost := l*costSortRowLog*math.Log2(math.Max(l, 2)) + r*costSortRowLog*math.Log2(math.Max(r, 2))
		cands = b.offer(cands, rules.KindImplMergeJoin, g, PhysMergeJoin, shuffle+sortCost+1.2*(l+r))
		bcast := buildRows*bw*costBroadcastPerB*float64(probeParts) + buildRows*costHashBuildRow + (l + r)
		if _, on := b.table.pick(rules.KindTuneBroadcastThreshold, g); on {
			bcast *= 0.5 // tuning rule biases toward broadcasting
		}
		cands = b.offer(cands, rules.KindImplBroadcastJoin, g, PhysBroadcastJoin, bcast)
	}
	cands = b.offer(cands, rules.KindImplNestedLoopJoin, g, PhysNestedLoopJoin,
		l*r*costNLJPerRowPair+buildRows*bw*costBroadcastPerB*float64(probeParts))
	if len(cands) == 0 {
		return nil, fail("no join implementation enabled for %s", n.JoinCond)
	}

	best := cheapest(cands)
	// The broadcast annotation overrides cost-based choice when feasible.
	if n.BroadcastRight {
		for _, c := range cands {
			if c.op == PhysBroadcastJoin {
				best = c
				break
			}
		}
	}
	b.table.fire(best.rule)

	switch best.op {
	case PhysHashJoin, PhysMergeJoin:
		parts := b.partitionsFor(l + r)
		lkey, rkey := leftKey, rightKey
		if lkey == "" {
			lkey, rkey = "cond", "cond"
		}
		lex, err := b.exchange(left, ExchangeHash, lkey, parts, g)
		if err != nil {
			return nil, err
		}
		rex, err := b.exchange(right, ExchangeHash, rkey, parts, g+1)
		if err != nil {
			return nil, err
		}
		if lex.Partitions != rex.Partitions {
			// Co-partitioned joins need matching partition counts; reuse
			// of pre-existing partitioning may disagree, so repartition
			// the smaller side.
			if lex.Partitions < rex.Partitions {
				lex, err = b.forceExchange(lex, ExchangeHash, lkey, rex.Partitions, g)
			} else {
				rex, err = b.forceExchange(rex, ExchangeHash, rkey, lex.Partitions, g+1)
			}
			if err != nil {
				return nil, err
			}
		}
		inputs := []*PhysNode{lex, rex}
		if n.BuildLeft {
			inputs = []*PhysNode{rex, lex} // probe first, build second
		}
		pn := b.newPhys(best.op, n, inputs...)
		pn.Partitions = lex.Partitions
		pn.PartScheme = lex.PartScheme
		return pn, nil

	default: // broadcast and nested-loop both broadcast the build side
		bex, err := b.forceExchange(build, ExchangeBroadcast, "", probeParts, g)
		if err != nil {
			return nil, err
		}
		pn := b.newPhys(best.op, n, probe, bex)
		pn.Partitions = probeParts
		pn.PartScheme = probe.PartScheme
		return pn, nil
	}
}

func (b *implBuilder) lowerAgg(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	g := gate(n)

	op, rule, err := b.pickAggImpl(g, in.EstRows, b.est.rows(n))
	if err != nil {
		return nil, err
	}

	if n.Partial {
		// Partial aggregation is pipelined: no exchange.
		b.table.fire(rule)
		pn := b.newPhys(op, n, in)
		return pn, nil
	}

	ex, err := b.groupExchange(in, n, g)
	if err != nil {
		return nil, err
	}
	b.table.fire(rule)
	pn := b.newPhys(op, n, ex)
	return pn, nil
}

// groupExchange co-locates in's rows by n's GroupBy columns, or gathers
// them when there are none.
func (b *implBuilder) groupExchange(in *PhysNode, n *scope.Node, g uint64) (*PhysNode, error) {
	if len(n.GroupBy) == 0 {
		return b.exchange(in, ExchangeGather, "", 1, g)
	}
	names := make([]string, len(n.GroupBy))
	for i, c := range n.GroupBy {
		names[i] = c.Name
	}
	return b.exchange(in, ExchangeHash, strings.Join(names, ","), b.partitionsFor(in.EstRows), g)
}

func (b *implBuilder) pickAggImpl(g uint64, inRows, outRows float64) (PhysOp, rules.Rule, error) {
	cands := make([]implChoice, 0, 2) // on the stack
	cands = b.offer(cands, rules.KindImplHashAgg, g, PhysHashAgg, inRows*1.5+outRows)
	cands = b.offer(cands, rules.KindImplStreamAgg, g, PhysStreamAgg, inRows*(0.6+0.055*math.Log2(math.Max(inRows, 2)))+outRows*0.5)
	if len(cands) == 0 {
		return 0, rules.Rule{}, fail("no aggregation implementation enabled")
	}
	best := cheapest(cands)
	return best.op, best.rule, nil
}

func (b *implBuilder) lowerDistinct(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	g := gate(n)
	op, rule, err := b.pickAggImpl(g, in.EstRows, b.est.rows(n))
	if err != nil {
		return nil, err
	}
	names := n.ColNames()
	sort.Strings(names)
	key := strings.Join(names, ",")
	ex, err := b.exchange(in, ExchangeHash, key, b.partitionsFor(in.EstRows), g)
	if err != nil {
		return nil, err
	}
	b.table.fire(rule)
	pn := b.newPhys(op, n, ex)
	return pn, nil
}

func (b *implBuilder) lowerUnion(n *scope.Node) (*PhysNode, error) {
	var ins []*PhysNode
	sumParts := 0
	sumRows := 0.0
	for _, in := range n.Inputs {
		pin, err := b.buildNode(in)
		if err != nil {
			return nil, err
		}
		ins = append(ins, pin)
		sumParts += pin.Partitions
		sumRows += pin.EstRows
	}
	g := gate(n)
	cands := make([]implChoice, 0, 2) // on the stack
	cands = b.offer(cands, rules.KindImplConcatUnion, g, PhysConcatUnion, sumRows*0.2)
	cands = b.offer(cands, rules.KindImplSortedUnion, g, PhysSortedUnion, sumRows*0.6)
	if len(cands) == 0 {
		return nil, fail("no union implementation enabled")
	}
	best := cheapest(cands)
	b.table.fire(best.rule)
	pn := b.newPhys(best.op, n, ins...)
	if best.op == PhysConcatUnion {
		pn.Partitions = min(sumParts, b.tokens)
		pn.PartScheme = "rr"
	} else {
		pn.Partitions = 1
		pn.PartScheme = "single"
	}
	return pn, nil
}

func sortKeyNames(keys []scope.SortKey) string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.Col.Name
	}
	return strings.Join(names, ",")
}

func (b *implBuilder) lowerSort(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	g := gate(n)
	rule, ok := b.table.pick(rules.KindImplExternalSort, g)
	if !ok {
		return nil, fail("sort implementation disabled for keys %s", sortKeyNames(n.SortKeys))
	}
	ex, err := b.exchange(in, ExchangeRange, sortKeyNames(n.SortKeys), b.partitionsFor(in.EstRows), g)
	if err != nil {
		return nil, err
	}
	b.table.fire(rule)
	pn := b.newPhys(PhysSort, n, ex)
	return pn, nil
}

func (b *implBuilder) lowerTop(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	g := gate(n)
	cands := make([]implChoice, 0, 2) // on the stack
	inRows := in.EstRows
	cands = b.offer(cands, rules.KindImplTopNHeap, g, PhysTopNHeap, inRows*1.2)
	cands = b.offer(cands, rules.KindImplExternalSort, g, PhysTopNSort, inRows*costSortRowLog*math.Log2(math.Max(inRows, 2)))
	if len(cands) == 0 {
		return nil, fail("no top-n implementation enabled")
	}
	best := cheapest(cands)
	b.table.fire(best.rule)

	// Local top per partition, then gather and finalize.
	local := b.newPhys(best.op, n, in)
	ex, err := b.exchange(local, ExchangeGather, "", 1, g)
	if err != nil {
		return nil, err
	}
	final := b.newPhys(best.op, n, ex)
	final.Partitions = 1
	final.PartScheme = "single"
	return final, nil
}

func (b *implBuilder) lowerReduce(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	ex, err := b.groupExchange(in, n, gate(n))
	if err != nil {
		return nil, err
	}
	return b.newPhys(PhysReduce, n, ex), nil
}

// --- Tuning, staging, costing ---

// gateOf returns the gating hash of a physical node: the logical site's
// gate where available, otherwise derived from the exchange's input.
func gateOf(n *PhysNode) uint64 {
	if n.GateHint != 0 {
		return n.GateHint
	}
	if n.Logical != nil {
		return gate(n.Logical)
	}
	if len(n.Inputs) > 0 && n.Inputs[0].Logical != nil {
		return gate(n.Inputs[0].Logical) ^ 0x5bd1e995
	}
	return uint64(n.ID) * 2654435761
}

// tunings lists the tuning kinds in application order, each with its
// effect on one node its rule r governs: apply reports whether it changed
// the node (false when the node is not the kind's shape or already at the
// bound). An apply reads and writes only its own node. The order matters:
// StageFusion sets Fused, which ExchangeCompression reads.
var tunings = [...]struct {
	kind  rules.Kind
	apply func(n *PhysNode, r rules.Rule, tokens int) bool
}{
	{rules.KindTunePartitionCount, tunePartitionCount},
	{rules.KindTuneStageFusion, tuneStageFusion},
	{rules.KindTuneVertexPacking, tuneVertexPacking},
	{rules.KindTuneExchangeCompression, tuneExchangeCompression},
	{rules.KindTuneSortBuffer, tuneSortBuffer},
}

// rescale halves (even variants) or doubles (odd ones) n's partition count
// within [1, tokens], and reports whether there was room to.
func rescale(n *PhysNode, r rules.Rule, tokens int) bool {
	if r.Variant%2 == 0 {
		if n.Partitions <= 1 {
			return false
		}
		n.Partitions = (n.Partitions + 1) / 2
		return true
	}
	if n.Partitions >= tokens {
		return false
	}
	n.Partitions = min(n.Partitions*2, tokens)
	return true
}

func tunePartitionCount(n *PhysNode, r rules.Rule, tokens int) bool {
	return n.IsExchange() && n.Exchange != ExchangeGather && n.Exchange != ExchangeBroadcast && rescale(n, r, tokens)
}

func tuneStageFusion(n *PhysNode, _ rules.Rule, _ int) bool {
	if !n.IsExchange() || n.Exchange != ExchangeRoundRobin || n.Fused {
		return false
	}
	n.Fused = true
	return true
}

func tuneVertexPacking(n *PhysNode, r rules.Rule, tokens int) bool {
	isScan := n.Op == PhysRowScan || n.Op == PhysColumnScan || n.Op == PhysIndexSeek
	if !isScan || !rescale(n, r, tokens) {
		return false
	}
	n.PackFactor = 2 // half the vertices, twice the rows each
	if r.Variant%2 != 0 {
		n.PackFactor = 0.5
	}
	return true
}

func tuneExchangeCompression(n *PhysNode, _ rules.Rule, _ int) bool {
	if !n.IsExchange() || n.Compress || n.Fused {
		return false
	}
	n.Compress = true
	return true
}

func tuneSortBuffer(n *PhysNode, _ rules.Rule, _ int) bool {
	if n.Op != PhysSort && n.Op != PhysTopNSort {
		return false
	}
	if n.PackFactor == 0.8 {
		return false
	}
	n.PackFactor = 0.8
	return true
}

// applyTuning applies the enabled tuning rules to matching plan fragments.
// Each tuning kind has many sibling rules and a node's gate selects exactly
// one of them per kind, so a node's gate is computed once and each kind is
// one pass over the nodes, firing the governing rule where it is enabled
// and changes the node.
func (b *implBuilder) applyTuning() {
	nodes := b.plan.Nodes()
	b.gates = b.gates[:0]
	for _, n := range nodes {
		b.gates = append(b.gates, gateOf(n))
	}
	for _, t := range tunings {
		for i, n := range nodes {
			if r, on := b.table.pick(t.kind, b.gates[i]); on && t.apply(n, r, b.tokens) {
				b.table.fire(r)
			}
		}
	}
	b.settlePartitions(nodes)
}

// settlePartitions makes the tuned partition counts consistent along
// pipelines; nodes must be in topological order, inputs first.
func (b *implBuilder) settlePartitions(nodes []*PhysNode) {
	// Fused exchanges become transparent: downstream inherits upstream
	// partitioning.
	for _, n := range nodes {
		if n.Fused && len(n.Inputs) > 0 {
			n.Partitions = n.Inputs[0].Partitions
			n.PartScheme = n.Inputs[0].PartScheme
		}
	}
	// Propagate adjusted partition counts through pipelines so stage
	// parallelism (and hence vertices and startup cost) reflects the
	// tuning: pipelined operators run at their input's parallelism.
	for _, n := range nodes {
		if n.IsExchange() || len(n.Inputs) == 0 {
			continue
		}
		if n.Op == PhysConcatUnion {
			sum := 0
			for _, in := range n.Inputs {
				sum += in.Partitions
			}
			n.Partitions = min(sum, b.tokens)
			continue
		}
		n.Partitions = n.Inputs[0].Partitions
	}
}

// assignStages groups pipelined operators into stages. Non-fused exchanges
// are stage boundaries: the exchange belongs to the downstream stage and
// its input starts a new upstream stage.
func (b *implBuilder) assignStages() {
	nodes := b.plan.Nodes()
	b.marked = zeroed(b.marked, b.plan.nextID)
	nextStage := 0
	for _, r := range b.plan.Roots {
		nextStage++
		nextStage = b.stageSubtree(r, nextStage, nextStage)
	}

	// Collect stages: IDs run 1..nextStage; one whose first node another
	// stage had taken stays empty and is left out. Sizes are counted first,
	// so stages, node lists and upstream lists are one allocation each.
	b.counts = zeroed(b.counts, 2*(nextStage+1))
	nNodes, nInputs := b.counts[:nextStage+1], b.counts[nextStage+1:]
	used, edges := 0, 0
	for _, n := range nodes {
		if nNodes[n.StageID] == 0 {
			used++
		}
		nNodes[n.StageID]++
		if n.IsExchange() && !n.Fused {
			nInputs[n.StageID] += len(n.Inputs)
			edges += len(n.Inputs)
		}
	}
	stages := make([]Stage, nextStage+1)
	members := make([]*PhysNode, len(nodes))
	upstream := make([]int, edges)
	b.plan.Stages = make([]*Stage, 0, used)
	for id := range stages {
		if nNodes[id] == 0 {
			continue
		}
		s := &stages[id]
		s.ID, s.Partitions = id, 1
		s.Nodes, members = members[:0:nNodes[id]], members[nNodes[id]:]
		if nInputs[id] > 0 {
			s.InputIDs, upstream = upstream[:0:nInputs[id]], upstream[nInputs[id]:]
		}
		b.plan.Stages = append(b.plan.Stages, s)
	}
	for _, n := range nodes {
		s := &stages[n.StageID]
		s.Nodes = append(s.Nodes, n)
		if n.Partitions > s.Partitions {
			s.Partitions = n.Partitions
		}
	}
	for _, n := range nodes {
		if n.IsExchange() && !n.Fused {
			down := &stages[n.StageID]
			for _, in := range n.Inputs {
				down.InputIDs = append(down.InputIDs, in.StageID)
			}
		}
	}
}

// stageSubtree assigns stage to n and its pipelined inputs, a fresh stage
// to each input across a boundary, and returns the last stage ID used.
func (b *implBuilder) stageSubtree(n *PhysNode, stage, nextStage int) int {
	if b.marked[n.ID] {
		return nextStage
	}
	b.marked[n.ID] = true
	n.StageID = stage
	boundary := n.IsExchange() && !n.Fused
	for _, in := range n.Inputs {
		if boundary {
			nextStage++
			nextStage = b.stageSubtree(in, nextStage, nextStage)
		} else {
			nextStage = b.stageSubtree(in, stage, nextStage)
		}
	}
	return nextStage
}

// computeCost sums per-operator estimated costs plus per-vertex startup.
func (b *implBuilder) computeCost() {
	total := 0.0
	for _, n := range b.plan.Nodes() {
		if n.Fused {
			continue
		}
		b.inRows = b.inRows[:0]
		for _, in := range n.Inputs {
			b.inRows = append(b.inRows, in.EstRows)
		}
		c := nodeCost(n, b.inRows, n.EstRows)
		if (n.Op == PhysSort || n.Op == PhysTopNSort) && n.PackFactor > 0 && n.PackFactor != 1 {
			c *= n.PackFactor
		}
		total += c
	}
	vertices := 0
	for _, s := range b.plan.Stages {
		vertices += s.Partitions
	}
	total += float64(vertices) * costStartupPerPart
	b.plan.EstCost = total
	b.plan.EstVertices = vertices
}

package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// rowsPerPartition is the target number of rows a single vertex processes.
const rowsPerPartition = 200_000

// implBuilder lowers the rewritten logical DAG into a physical plan,
// choosing among enabled implementation rules per operator site, inserting
// exchanges, applying tuning rules, assigning stages and costing the plan.
type implBuilder struct {
	table  ruleTable
	stats  StatsProvider
	est    *cardEngine
	tokens int

	plan *Plan
	memo map[*scope.Node]*PhysNode
}

func newImplBuilder(cfg rules.Config, cat *rules.Catalog, sig *rules.Signature, stats StatsProvider, env Environment, tokens int) *implBuilder {
	return &implBuilder{
		table:  ruleTable{cat: cat, cfg: cfg, sig: sig},
		stats:  stats,
		est:    newCardEngine(env, stats),
		tokens: tokens,
		memo:   make(map[*scope.Node]*PhysNode),
	}
}

func (b *implBuilder) build(g *scope.Graph) (*Plan, error) {
	b.plan = &Plan{}
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
	p := int(math.Ceil(rows / rowsPerPartition))
	if p < 1 {
		p = 1
	}
	if p > b.tokens {
		p = b.tokens
	}
	return p
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

// exchange inserts an exchange of the given kind above in, unless in
// already carries the required partitioning scheme. Hash exchanges fall
// back to range partitioning when the hash partitioner is disabled for
// the site.
func (b *implBuilder) exchange(in *PhysNode, kind ExchangeKind, key string, parts int, siteGate uint64) (*PhysNode, error) {
	scheme := ""
	switch kind {
	case ExchangeHash:
		scheme = "hash:" + key
	case ExchangeRange:
		scheme = "range:" + key
	case ExchangeBroadcast:
		scheme = "bcast"
	case ExchangeGather:
		scheme = "single"
		parts = 1
	case ExchangeRoundRobin:
		scheme = "rr"
	}
	if kind == ExchangeHash || kind == ExchangeRange {
		// Reuse existing co-location: hash or range partitioning on the
		// same key both co-locate equal keys.
		if in.PartScheme == "hash:"+key || in.PartScheme == "range:"+key {
			return in, nil
		}
	} else if in.PartScheme == scheme && kind != ExchangeBroadcast {
		return in, nil
	}

	switch kind {
	case ExchangeHash:
		if r, ok := b.table.pick(rules.KindImplHashPartition, siteGate); ok {
			b.table.fire(r)
		} else if r, ok := b.table.pick(rules.KindImplRangePartition, siteGate); ok {
			// Range partitioning also co-locates equal keys.
			b.table.fire(r)
			kind = ExchangeRange
			scheme = "range:" + key
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
	}

	ex := b.plan.NewNode(PhysExchange, nil, in)
	ex.Exchange = kind
	ex.EstRows = in.EstRows
	ex.RowWidth = in.RowWidth
	ex.Partitions = parts
	ex.PartScheme = scheme
	ex.GateHint = siteGate
	return ex, nil
}

func (b *implBuilder) buildNode(n *scope.Node) (*PhysNode, error) {
	if pn, ok := b.memo[n]; ok {
		return pn, nil
	}
	pn, err := b.lower(n)
	if err != nil {
		return nil, err
	}
	b.memo[n] = pn
	return pn, nil
}

func (b *implBuilder) lower(n *scope.Node) (*PhysNode, error) {
	switch n.Kind {
	case scope.OpScan:
		return b.lowerScan(n)
	case scope.OpFilter:
		return b.lowerFilter(n)
	case scope.OpProject:
		in, err := b.buildNode(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return b.newPhys(PhysProject, n, in), nil
	case scope.OpProcess:
		in, err := b.buildNode(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return b.newPhys(PhysProcess, n, in), nil
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
	case scope.OpOutput:
		in, err := b.buildNode(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		return b.newPhys(PhysOutput, n, in), nil
	default:
		return nil, fail("no lowering for operator %s", n.Kind)
	}
}

func (b *implBuilder) lowerScan(n *scope.Node) (*PhysNode, error) {
	g := gate(n)
	baseRows := b.est.env.BaseRows(n.TablePath)

	type cand struct {
		op   PhysOp
		rule rules.Rule
		cost float64
	}
	var cands []cand
	outRows := b.est.rows(n)
	width := float64(n.RowWidth())
	baseWidth := float64(n.BaseWidth)
	if baseWidth == 0 {
		baseWidth = width
	}
	// Candidate costs use the same formulas as the plan cost model, so
	// implementation choice is greedy with respect to the reported
	// estimated cost.
	if r, ok := b.table.pick(rules.KindImplRowScan, g); ok {
		cands = append(cands, cand{PhysRowScan, r, outRows*costCPUPerRow*0.6 + outRows*baseWidth*costIOPerByte})
	}
	if r, ok := b.table.pick(rules.KindImplColumnScan, g); ok {
		cands = append(cands, cand{PhysColumnScan, r, outRows*costCPUPerRow + outRows*width*costIOPerByte*0.7})
	}
	// An index seek is only feasible for selective pushed-down equality
	// predicates (simulating SCOPE structured streams).
	if n.Pred != nil && hasEqualityConjunct(n.Pred) && outRows < baseRows*0.05 {
		if r, ok := b.table.pick(rules.KindImplIndexSeek, g); ok {
			cands = append(cands, cand{PhysIndexSeek, r, outRows*costCPUPerRow + outRows*width*costIOPerByte*costSeekReduction})
		}
	}
	if len(cands) == 0 {
		return nil, fail("no scan implementation enabled for %s", n.TablePath)
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
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
	for _, c := range scope.Conjuncts(pred) {
		if be, ok := c.(*scope.BinaryExpr); ok && be.Op == "==" {
			return true
		}
	}
	return false
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

// joinImpl describes one physical join alternative under consideration.
type joinImpl struct {
	op   PhysOp
	rule rules.Rule
	cost float64
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

	var cands []joinImpl
	if equi {
		if rule, ok := b.table.pick(rules.KindImplHashJoin, g); ok {
			cost := (l*lw+r*rw)*costExchangePerB + buildRows*costHashBuildRow + (l + r)
			cands = append(cands, joinImpl{PhysHashJoin, rule, cost})
		}
		if rule, ok := b.table.pick(rules.KindImplMergeJoin, g); ok {
			sortCost := l*costSortRowLog*math.Log2(math.Max(l, 2)) + r*costSortRowLog*math.Log2(math.Max(r, 2))
			cost := (l*lw+r*rw)*costExchangePerB + sortCost + 1.2*(l+r)
			cands = append(cands, joinImpl{PhysMergeJoin, rule, cost})
		}
		if rule, ok := b.table.pick(rules.KindImplBroadcastJoin, g); ok {
			cost := buildRows*bw*costBroadcastPerB*float64(probeParts) + buildRows*costHashBuildRow + (l + r)
			if _, on := b.table.pick(rules.KindTuneBroadcastThreshold, g); on {
				cost *= 0.5 // tuning rule biases toward broadcasting
			}
			cands = append(cands, joinImpl{PhysBroadcastJoin, rule, cost})
		}
	}
	if rule, ok := b.table.pick(rules.KindImplNestedLoopJoin, g); ok {
		cost := l*r*costNLJPerRowPair + buildRows*bw*costBroadcastPerB*float64(probeParts)
		cands = append(cands, joinImpl{PhysNestedLoopJoin, rule, cost})
	}
	if len(cands) == 0 {
		return nil, fail("no join implementation enabled for %s", n.JoinCond)
	}

	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
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

// forceExchange inserts an exchange even when the scheme already matches
// (used for broadcast and partition-count alignment).
func (b *implBuilder) forceExchange(in *PhysNode, kind ExchangeKind, key string, parts int, siteGate uint64) (*PhysNode, error) {
	scheme := "bcast"
	if kind == ExchangeHash {
		scheme = "hash:" + key
		if r, ok := b.table.pick(rules.KindImplHashPartition, siteGate); ok {
			b.table.fire(r)
		} else if r, ok := b.table.pick(rules.KindImplRangePartition, siteGate); ok {
			b.table.fire(r)
			kind = ExchangeRange
			scheme = "range:" + key
		} else {
			return nil, fail("no partitioning implementation enabled for key %q", key)
		}
	}
	ex := b.plan.NewNode(PhysExchange, nil, in)
	ex.Exchange = kind
	ex.EstRows = in.EstRows
	ex.RowWidth = in.RowWidth
	ex.Partitions = parts
	ex.PartScheme = scheme
	ex.GateHint = siteGate
	return ex, nil
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

	var ex *PhysNode
	if len(n.GroupBy) == 0 {
		ex, err = b.exchange(in, ExchangeGather, "", 1, g)
	} else {
		names := make([]string, len(n.GroupBy))
		for i, c := range n.GroupBy {
			names[i] = c.Name
		}
		key := strings.Join(names, ",")
		ex, err = b.exchange(in, ExchangeHash, key, b.partitionsFor(in.EstRows), g)
	}
	if err != nil {
		return nil, err
	}
	b.table.fire(rule)
	pn := b.newPhys(op, n, ex)
	pn.Partitions = ex.Partitions
	pn.PartScheme = ex.PartScheme
	return pn, nil
}

func (b *implBuilder) pickAggImpl(g uint64, inRows, outRows float64) (PhysOp, rules.Rule, error) {
	type cand struct {
		op   PhysOp
		rule rules.Rule
		cost float64
	}
	var cands []cand
	if r, ok := b.table.pick(rules.KindImplHashAgg, g); ok {
		cands = append(cands, cand{PhysHashAgg, r, inRows*1.5 + outRows})
	}
	if r, ok := b.table.pick(rules.KindImplStreamAgg, g); ok {
		cands = append(cands, cand{PhysStreamAgg, r, inRows*(0.6+0.055*math.Log2(math.Max(inRows, 2))) + outRows*0.5})
	}
	if len(cands) == 0 {
		return 0, rules.Rule{}, fail("no aggregation implementation enabled")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
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
	pn.Partitions = ex.Partitions
	pn.PartScheme = ex.PartScheme
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
	type cand struct {
		op   PhysOp
		rule rules.Rule
		cost float64
	}
	var cands []cand
	if r, ok := b.table.pick(rules.KindImplConcatUnion, g); ok {
		cands = append(cands, cand{PhysConcatUnion, r, sumRows * 0.2})
	}
	if r, ok := b.table.pick(rules.KindImplSortedUnion, g); ok {
		cands = append(cands, cand{PhysSortedUnion, r, sumRows * 0.6})
	}
	if len(cands) == 0 {
		return nil, fail("no union implementation enabled")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	b.table.fire(best.rule)
	pn := b.newPhys(best.op, n, ins...)
	if best.op == PhysConcatUnion {
		if sumParts > b.tokens {
			sumParts = b.tokens
		}
		pn.Partitions = sumParts
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
	pn.Partitions = ex.Partitions
	pn.PartScheme = ex.PartScheme
	return pn, nil
}

func (b *implBuilder) lowerTop(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	g := gate(n)
	type cand struct {
		op   PhysOp
		rule rules.Rule
		cost float64
	}
	var cands []cand
	inRows := in.EstRows
	if r, ok := b.table.pick(rules.KindImplTopNHeap, g); ok {
		cands = append(cands, cand{PhysTopNHeap, r, inRows * 1.2})
	}
	if r, ok := b.table.pick(rules.KindImplExternalSort, g); ok {
		cands = append(cands, cand{PhysTopNSort, r, inRows * costSortRowLog * math.Log2(math.Max(inRows, 2))})
	}
	if len(cands) == 0 {
		return nil, fail("no top-n implementation enabled")
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
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
	g := gate(n)
	var ex *PhysNode
	if len(n.GroupBy) == 0 {
		ex, err = b.exchange(in, ExchangeGather, "", 1, g)
	} else {
		names := make([]string, len(n.GroupBy))
		for i, c := range n.GroupBy {
			names[i] = c.Name
		}
		ex, err = b.exchange(in, ExchangeHash, strings.Join(names, ","), b.partitionsFor(in.EstRows), g)
	}
	if err != nil {
		return nil, err
	}
	pn := b.newPhys(PhysReduce, n, ex)
	pn.Partitions = ex.Partitions
	pn.PartScheme = ex.PartScheme
	return pn, nil
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

func tunePartitionCount(n *PhysNode, r rules.Rule, tokens int) bool {
	if !n.IsExchange() || n.Exchange == ExchangeGather || n.Exchange == ExchangeBroadcast {
		return false
	}
	if r.Variant%2 == 0 {
		if n.Partitions <= 1 {
			return false
		}
		n.Partitions = (n.Partitions + 1) / 2
	} else {
		if n.Partitions >= tokens {
			return false
		}
		n.Partitions = minInt(n.Partitions*2, tokens)
	}
	return true
}

func tuneStageFusion(n *PhysNode, _ rules.Rule, _ int) bool {
	if !n.IsExchange() || n.Exchange != ExchangeRoundRobin || n.Fused {
		return false
	}
	n.Fused = true
	return true
}

func tuneVertexPacking(n *PhysNode, r rules.Rule, tokens int) bool {
	switch n.Op {
	case PhysRowScan, PhysColumnScan, PhysIndexSeek:
	default:
		return false
	}
	if r.Variant%2 == 0 {
		if n.Partitions <= 1 {
			return false
		}
		n.PackFactor = 2
		n.Partitions = (n.Partitions + 1) / 2
	} else {
		if n.Partitions >= tokens {
			return false
		}
		n.PackFactor = 0.5
		n.Partitions = minInt(n.Partitions*2, tokens)
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
	gates := make([]uint64, len(nodes))
	for i, n := range nodes {
		gates[i] = gateOf(n)
	}
	for _, t := range tunings {
		for i, n := range nodes {
			if r, on := b.table.pick(t.kind, gates[i]); on && t.apply(n, r, b.tokens) {
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
			n.Partitions = minInt(sum, b.tokens)
			continue
		}
		n.Partitions = n.Inputs[0].Partitions
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// assignStages groups pipelined operators into stages. Non-fused exchanges
// are stage boundaries: the exchange belongs to the downstream stage and
// its input starts a new upstream stage.
func (b *implBuilder) assignStages() {
	nextStage := 0
	assigned := make(map[*PhysNode]bool)
	var visit func(n *PhysNode, stage int)
	visit = func(n *PhysNode, stage int) {
		if assigned[n] {
			return
		}
		assigned[n] = true
		n.StageID = stage
		boundary := n.IsExchange() && !n.Fused
		for _, in := range n.Inputs {
			if boundary {
				nextStage++
				visit(in, nextStage)
			} else {
				visit(in, stage)
			}
		}
	}
	for _, r := range b.plan.Roots {
		nextStage++
		visit(r, nextStage)
	}

	// Collect stages.
	byID := make(map[int]*Stage)
	for _, n := range b.plan.Nodes() {
		s := byID[n.StageID]
		if s == nil {
			s = &Stage{ID: n.StageID, Partitions: 1}
			byID[n.StageID] = s
		}
		s.Nodes = append(s.Nodes, n)
		if n.Partitions > s.Partitions {
			s.Partitions = n.Partitions
		}
	}
	for _, n := range b.plan.Nodes() {
		if n.IsExchange() && !n.Fused {
			down := byID[n.StageID]
			for _, in := range n.Inputs {
				down.InputIDs = append(down.InputIDs, in.StageID)
			}
		}
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b.plan.Stages = b.plan.Stages[:0]
	for _, id := range ids {
		b.plan.Stages = append(b.plan.Stages, byID[id])
	}
}

// computeCost sums per-operator estimated costs plus per-vertex startup.
func (b *implBuilder) computeCost() {
	total := 0.0
	for _, n := range b.plan.Nodes() {
		if n.Fused {
			continue
		}
		var inRows []float64
		for _, in := range n.Inputs {
			inRows = append(inRows, in.EstRows)
		}
		c := nodeCost(n, inRows, n.EstRows)
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

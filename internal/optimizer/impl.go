package optimizer

import (
	"math"
	"slices"
	"sync"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// rowsPerPartition is the target number of rows a single vertex processes.
const rowsPerPartition = 200_000

// implBuilder lowers the rewritten logical DAG into a physical plan,
// choosing among enabled implementation rules per operator site, inserting
// exchanges, applying tuning rules, assigning stages and costing the plan.
//
// A builder lives in implPool, and everything it keeps between builds is
// scratch but its scheme table: lowering makes its nodes in the builder's
// chunks, their Inputs in its buffer, its exchange keys in its bytes, and
// tuning, stage assignment and costing then finish the plan there, its
// stages, their node lists and upstream IDs in buffers of their own. Only
// Optimize publishes the finished plan, last: publish copies it, sized
// exactly, into memory the returned Plan owns alone; Estimate reads its
// signature and cost and publishes nothing, and Use lends the scratch
// plan itself to its callback (borrow). The keyed partitioning
// schemes are strings interned in the builder's table, immutable and
// shared by every plan that names them. Nothing else a published Plan
// holds points into the builder, so a later build on it cannot reach a
// plan already returned (TestPublishedPlanOwnsItsMemory).
type implBuilder struct {
	table  ruleTable
	est    cardEngine
	tokens int

	// sig and estimation back table.sig and est's environment, so that a
	// compilation's signature and environment live in the pool rather
	// than on the heap.
	sig        rules.Signature
	estimation EstimationEnv

	memo []*PhysNode // by logical node ID: the node's lowering

	// The plan being built. Node ID k is chunks[k/implChunk][k%implChunk]:
	// a chunk keeps its nodes' addresses while more are made. The nodes'
	// Inputs lie back to back in ins.
	chunks [][]PhysNode
	nodes  int // nodes made by this build
	ins    []*PhysNode
	roots  []*PhysNode
	order  []*PhysNode // topological order, inputs first
	stack  []*PhysNode // lowerUnion's lowered inputs, a nested union's above
	key    []byte      // an exchange key, built once the inputs are lowered
	scheme []byte      // a keyed PartScheme before it is looked up
	names  []string    // lowerDistinct's sorted column names

	// The finished plan's stages, whose node lists lie in members and
	// upstream stage IDs in upstream, and its cost and vertex count.
	stages   []Stage
	members  []*PhysNode
	upstream []int
	cost     float64
	vertices int

	// res and plan are the Result and Plan borrow lends over the scratch;
	// release zeroes them.
	res  Result
	plan Plan

	// schemes interns keyed PartSchemes, each keyed by itself: the one
	// part of the builder a published plan shares (schemeInternCap).
	schemes map[string]string

	gates  []uint64  // tuning gates, by position in plan order
	marked []bool    // visited marks, by physical ID
	counts []int     // per stage: nodes, upstream stage IDs, slot
	inRows []float64 // one node's input cardinalities
}

// implChunk is how many scratch nodes a builder allocates at once.
const implChunk = 64

var implPool = sync.Pool{New: func() any { return new(implBuilder) }}

// lower builds g's plan, reading g only, on a pooled builder under the
// optimizer's estimation environment: lowered, tuned, staged and costed
// in the builder's scratch, with the rules the lowering fired added to
// sig in b.sig. The caller publishes the plan or not and then releases
// the builder; on an error lower has released it already.
func lower(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig rules.Signature, stats StatsProvider, tokens int) (*implBuilder, error) {
	b := implPool.Get().(*implBuilder)
	b.init(g, cfg, cat, sig, stats, tokens)
	if err := b.build(g); err != nil {
		b.release()
		return nil, err
	}
	return b, nil
}

// release pools b once it has dropped what points into the caller's
// world: the rule table, the environment, the borrowed Result and Plan,
// and the logical nodes and names the scratch holds. A borrowed Result
// kept past release reads as one with no plan, a borrowed Plan as one
// with no roots, stages or nodes.
func (b *implBuilder) release() {
	b.table, b.estimation = ruleTable{}, EstimationEnv{}
	b.res, b.plan = Result{}, Plan{}
	b.est.release()
	for c := 0; c*implChunk < b.nodes; c++ {
		clear(b.chunks[c])
	}
	clear(b.names)
	implPool.Put(b)
}

// init readies b, new or pooled, to lower g under cfg, starting from the
// signature sig.
func (b *implBuilder) init(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig rules.Signature, stats StatsProvider, tokens int) {
	b.sig, b.estimation = sig, EstimationEnv{Stats: stats}
	b.table = ruleTable{cat: cat, cfg: cfg, sig: &b.sig}
	b.est.reset(&b.estimation, stats, g.IDBound())
	b.tokens = tokens
	b.memo = zeroed(b.memo, g.IDBound())
	b.nodes = 0
	b.ins, b.roots, b.order, b.stack = b.ins[:0], b.roots[:0], b.order[:0], b.stack[:0]
}

// build lowers g and finishes the plan in the scratch. Tuning and stage
// assignment set fields; they add no node.
func (b *implBuilder) build(g *scope.Graph) error {
	if err := b.lowerRoots(g); err != nil {
		return err
	}
	b.applyTuning()
	b.assignStages()
	b.computeCost()
	return nil
}

// lowerRoots lowers every root of g into the scratch and records the
// topological order.
func (b *implBuilder) lowerRoots(g *scope.Graph) error {
	for _, root := range g.Roots {
		pn, err := b.buildNode(root)
		if err != nil {
			return err
		}
		b.roots = append(b.roots, pn)
	}
	b.marked = zeroed(b.marked, b.nodes)
	for _, r := range b.roots {
		b.order = appendPhysSubtree(b.order, b.marked, r)
	}
	return nil
}

// published is a compilation's Result and the Plan it points to, made in
// one allocation.
type published struct {
	res  Result
	plan Plan
}

// publish copies the finished plan out of the scratch and returns the
// Result of compiling it from the rewritten graph work: one slab of
// nodes, one of pointers — every node's Inputs, the roots, the
// topological order, then the stages' node lists — one of stages and one
// of their upstream IDs, each sized exactly. A node keeps its ID, which
// is its slab index.
func (b *implBuilder) publish(work *scope.Graph) *Result {
	out := new(published)
	p := &out.plan
	nodes := make([]PhysNode, b.nodes)
	ptrs := make([]*PhysNode, len(b.ins)+len(b.roots)+2*len(b.order))
	for id := range nodes {
		n := &nodes[id]
		*n = b.chunks[id/implChunk][id%implChunk]
		n.Inputs, ptrs = remap(ptrs, nodes, n.Inputs)
	}
	p.Roots, ptrs = remap(ptrs, nodes, b.roots)
	p.order, ptrs = remap(ptrs, nodes, b.order)
	p.Stages = make([]Stage, len(b.stages))
	upstream := make([]int, len(b.upstream))
	for i, s := range b.stages {
		s.Nodes, ptrs = remap(ptrs, nodes, s.Nodes)
		if k := len(s.InputIDs); k > 0 {
			copy(upstream, s.InputIDs)
			s.InputIDs, upstream = upstream[:k:k], upstream[k:]
		}
		p.Stages[i] = s
	}
	p.EstCost, p.EstVertices, p.nextID = b.cost, b.vertices, b.nodes
	out.res = Result{Plan: p, Logical: work, Signature: b.sig, EstCost: b.cost}
	return &out.res
}

// borrow returns the Result of compiling the finished plan from the
// rewritten graph work without copying it: the Plan's roots, topological
// order and stages are the scratch's own slices, and its nodes the
// scratch's, until release.
func (b *implBuilder) borrow(work *scope.Graph) *Result {
	b.plan = Plan{Roots: b.roots, Stages: b.stages, EstCost: b.cost, EstVertices: b.vertices, nextID: b.nodes, order: b.order}
	b.res = Result{Plan: &b.plan, Logical: work, Signature: b.sig, EstCost: b.cost}
	return &b.res
}

// remap writes the published counterparts of src, nodes being the
// published slab, to the head of dst and returns that head capped at its
// length, and the rest of dst.
func remap(dst []*PhysNode, nodes []PhysNode, src []*PhysNode) (own, rest []*PhysNode) {
	if len(src) == 0 {
		return nil, dst
	}
	for i, n := range src {
		dst[i] = &nodes[n.ID]
	}
	return dst[:len(src):len(src)], dst[len(src):]
}

func (b *implBuilder) partitionsFor(rows float64) int {
	return min(max(int(math.Ceil(rows/rowsPerPartition)), 1), b.tokens)
}

// newPhys makes a scratch node, carrying over sizing from the logical
// node and its input. It copies inputs, so a caller's slice may be scratch
// too.
func (b *implBuilder) newPhys(op PhysOp, ln *scope.Node, inputs ...*PhysNode) *PhysNode {
	c := b.nodes / implChunk
	if c == len(b.chunks) {
		b.chunks = append(b.chunks, make([]PhysNode, implChunk))
	}
	n := &b.chunks[c][b.nodes%implChunk]
	*n = PhysNode{ID: b.nodes, Op: op, Logical: ln, PackFactor: 1}
	b.nodes++
	if k := len(inputs); k > 0 {
		b.ins = append(b.ins, inputs...)
		end := len(b.ins)
		n.Inputs = b.ins[end-k : end : end]
	}
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

// schemePrefix is the PartScheme of an exchange of each kind; a hash or
// range scheme goes on with its key.
var schemePrefix = [...]string{
	ExchangeHash: "hash:", ExchangeRange: "range:", ExchangeBroadcast: "bcast",
	ExchangeGather: "single", ExchangeRoundRobin: "rr",
}

// hasScheme reports whether scheme is what partScheme(kind, key) would
// make, without making it.
func hasScheme(scheme string, kind ExchangeKind, key []byte) bool {
	p := schemePrefix[kind]
	return len(scheme) == len(p)+len(key) && scheme[:len(p)] == p && scheme[len(p):] == string(key)
}

// schemeInternCap bounds a builder's table of interned keyed schemes; a
// full table is cleared. The ledger's ten-day loop at benchmark size
// (222 templates) sees 122.
const schemeInternCap = 512

// partScheme names the output partitioning of an exchange. A keyed
// scheme is interned in the builder's table: it allocates only the first
// time the builder sees it (and again after the table is cleared).
// Interned strings are immutable, so plans share them safely.
func (b *implBuilder) partScheme(kind ExchangeKind, key []byte) string {
	p := schemePrefix[kind]
	if (kind != ExchangeHash && kind != ExchangeRange) || len(key) == 0 {
		return p
	}
	b.scheme = append(append(b.scheme[:0], p...), key...)
	if s, ok := b.schemes[string(b.scheme)]; ok {
		return s
	}
	if len(b.schemes) == schemeInternCap {
		clear(b.schemes)
	}
	if b.schemes == nil {
		b.schemes = make(map[string]string)
	}
	s := string(b.scheme)
	b.schemes[s] = s
	return s
}

// appendKey appends the i-th column name of an exchange key to dst.
func appendKey(dst []byte, i int, name string) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	return append(dst, name...)
}

// exchange inserts an exchange of the given kind above in, unless in
// already carries the required partitioning scheme. key is read, not
// kept.
func (b *implBuilder) exchange(in *PhysNode, kind ExchangeKind, key []byte, parts int, siteGate uint64) (*PhysNode, error) {
	if kind == ExchangeHash || kind == ExchangeRange {
		// Reuse existing co-location: hash or range partitioning on the
		// same key both co-locate equal keys.
		if hasScheme(in.PartScheme, ExchangeHash, key) || hasScheme(in.PartScheme, ExchangeRange, key) {
			return in, nil
		}
	} else if kind != ExchangeBroadcast && hasScheme(in.PartScheme, kind, key) {
		return in, nil
	}
	return b.forceExchange(in, kind, key, parts, siteGate)
}

// forceExchange inserts an exchange even when the scheme already matches
// (used for broadcast and partition-count alignment). Hash exchanges fall
// back to range partitioning when the hash partitioner is disabled for
// the site; a disabled round-robin rebalance yields no node and no error.
func (b *implBuilder) forceExchange(in *PhysNode, kind ExchangeKind, key []byte, parts int, siteGate uint64) (*PhysNode, error) {
	switch kind {
	case ExchangeHash:
		if r, ok := b.table.pick(rules.KindImplHashPartition, siteGate); ok {
			b.table.fire(r)
		} else if r, ok := b.table.pick(rules.KindImplRangePartition, siteGate); ok {
			// Range partitioning also co-locates equal keys.
			b.table.fire(r)
			kind = ExchangeRange
		} else {
			return nil, &CompileFailure{kind: failNoPartitioning, operand: string(key)}
		}
	case ExchangeRange:
		r, ok := b.table.pick(rules.KindImplRangePartition, siteGate)
		if !ok {
			return nil, &CompileFailure{kind: failRangeOff, operand: string(key)}
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
	ex.PartScheme = b.partScheme(kind, key)
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
		return nil, &CompileFailure{kind: failNoLowering, op: n.Kind}
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
		return nil, &CompileFailure{kind: failNoScan, operand: n.TablePath}
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
		ex, err := b.exchange(pn, ExchangeRoundRobin, nil, b.partitionsFor(pn.EstRows), gate(n))
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
		return nil, &CompileFailure{kind: failNoJoin, cond: n.JoinCond}
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
		if leftKey == "" {
			leftKey, rightKey = "cond", "cond"
		}
		b.key = append(append(b.key[:0], leftKey...), rightKey...)
		lkey, rkey := b.key[:len(leftKey):len(leftKey)], b.key[len(leftKey):]
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
		bex, err := b.forceExchange(build, ExchangeBroadcast, nil, probeParts, g)
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
		return b.exchange(in, ExchangeGather, nil, 1, g)
	}
	b.key = b.key[:0]
	for i, c := range n.GroupBy {
		b.key = appendKey(b.key, i, c.Name)
	}
	return b.exchange(in, ExchangeHash, b.key, b.partitionsFor(in.EstRows), g)
}

func (b *implBuilder) pickAggImpl(g uint64, inRows, outRows float64) (PhysOp, rules.Rule, error) {
	cands := make([]implChoice, 0, 2) // on the stack
	cands = b.offer(cands, rules.KindImplHashAgg, g, PhysHashAgg, inRows*1.5+outRows)
	cands = b.offer(cands, rules.KindImplStreamAgg, g, PhysStreamAgg, inRows*(0.6+0.055*math.Log2(math.Max(inRows, 2)))+outRows*0.5)
	if len(cands) == 0 {
		return 0, rules.Rule{}, &CompileFailure{kind: failNoAgg}
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
	b.names = b.names[:0]
	for _, c := range n.Cols {
		b.names = append(b.names, c.Name)
	}
	slices.Sort(b.names)
	b.key = b.key[:0]
	for i, name := range b.names {
		b.key = appendKey(b.key, i, name)
	}
	ex, err := b.exchange(in, ExchangeHash, b.key, b.partitionsFor(in.EstRows), g)
	if err != nil {
		return nil, err
	}
	b.table.fire(rule)
	pn := b.newPhys(op, n, ex)
	return pn, nil
}

func (b *implBuilder) lowerUnion(n *scope.Node) (*PhysNode, error) {
	base := len(b.stack)
	sumParts := 0
	sumRows := 0.0
	for _, in := range n.Inputs {
		pin, err := b.buildNode(in)
		if err != nil {
			return nil, err
		}
		b.stack = append(b.stack, pin)
		sumParts += pin.Partitions
		sumRows += pin.EstRows
	}
	g := gate(n)
	cands := make([]implChoice, 0, 2) // on the stack
	cands = b.offer(cands, rules.KindImplConcatUnion, g, PhysConcatUnion, sumRows*0.2)
	cands = b.offer(cands, rules.KindImplSortedUnion, g, PhysSortedUnion, sumRows*0.6)
	if len(cands) == 0 {
		return nil, &CompileFailure{kind: failNoUnion}
	}
	best := cheapest(cands)
	b.table.fire(best.rule)
	pn := b.newPhys(best.op, n, b.stack[base:]...)
	b.stack = b.stack[:base]
	if best.op == PhysConcatUnion {
		pn.Partitions = min(sumParts, b.tokens)
		pn.PartScheme = "rr"
	} else {
		pn.Partitions = 1
		pn.PartScheme = "single"
	}
	return pn, nil
}

func (b *implBuilder) lowerSort(n *scope.Node) (*PhysNode, error) {
	in, err := b.buildNode(n.Inputs[0])
	if err != nil {
		return nil, err
	}
	b.key = b.key[:0]
	for i, k := range n.SortKeys {
		b.key = appendKey(b.key, i, k.Col.Name)
	}
	g := gate(n)
	rule, ok := b.table.pick(rules.KindImplExternalSort, g)
	if !ok {
		return nil, &CompileFailure{kind: failSortOff, operand: string(b.key)}
	}
	ex, err := b.exchange(in, ExchangeRange, b.key, b.partitionsFor(in.EstRows), g)
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
		return nil, &CompileFailure{kind: failNoTopN}
	}
	best := cheapest(cands)
	b.table.fire(best.rule)

	// Local top per partition, then gather and finalize.
	local := b.newPhys(best.op, n, in)
	ex, err := b.exchange(local, ExchangeGather, nil, 1, g)
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
	nodes := b.order
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
	nodes := b.order
	b.marked = zeroed(b.marked, b.nodes)
	nextStage := 0
	for _, r := range b.roots {
		nextStage++
		nextStage = b.stageSubtree(r, nextStage, nextStage)
	}

	// Collect stages: IDs run 1..nextStage; one whose first node another
	// stage had taken stays empty and is left out. Sizes are counted first,
	// so the stages, their node lists and their upstream lists each fill
	// one of the builder's buffers.
	k := nextStage + 1
	b.counts = zeroed(b.counts, 3*k)
	nNodes, nInputs, slot := b.counts[:k], b.counts[k:2*k], b.counts[2*k:]
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
	b.stages = zeroed(b.stages, used)
	b.members = zeroed(b.members, len(nodes))
	b.upstream = zeroed(b.upstream, edges)
	stages, members, upstream := b.stages, b.members, b.upstream
	i := 0
	for id, c := range nNodes {
		if c == 0 {
			continue
		}
		s := &stages[i]
		slot[id] = i
		i++
		s.ID, s.Partitions = id, 1
		s.Nodes, members = members[:0:c], members[c:]
		if nInputs[id] > 0 {
			s.InputIDs, upstream = upstream[:0:nInputs[id]], upstream[nInputs[id]:]
		}
	}
	for _, n := range nodes {
		s := &stages[slot[n.StageID]]
		s.Nodes = append(s.Nodes, n)
		if n.Partitions > s.Partitions {
			s.Partitions = n.Partitions
		}
	}
	for _, n := range nodes {
		if n.IsExchange() && !n.Fused {
			down := &stages[slot[n.StageID]]
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
	for _, n := range b.order {
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
	for i := range b.stages {
		vertices += b.stages[i].Partitions
	}
	total += float64(vertices) * costStartupPerPart
	b.cost, b.vertices = total, vertices
}

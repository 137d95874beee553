package optimizer

import (
	"slices"
	"sync"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// maxRewriteFires bounds the number of rule firings per compilation, a
// safety valve against pathological rewrite interactions.
const maxRewriteFires = 400

// rewriter applies the enabled logical transformation rules to a plan DAG
// until fixpoint, recording every fired rule in the signature. What it
// keeps per node is a slice indexed by scope.Node.ID (dense below
// g.IDBound(); rewrites only add nodes), and every slice is scratch that
// outlives the rewrite in rewriterPool, unreachable from the graph.
//
// In rewriteLogical the graph it rewrites is a working copy in scratch,
// and so is every node a rewrite makes: the copy that rewrite returns, in
// its cache's store or a heap Clone, is the only memory of the DAG the
// compilation keeps, and release clears the working copy before the
// rewriter is pooled, as implBuilder.release clears its chunks. That copy
// shares the working copy's schemas and expressions, so every column list
// and predicate node a rewrite puts into the working copy is cut from dst,
// the store the copy goes to (the heap when it is nil).
type rewriter struct {
	ruleTable
	g       *scope.Graph
	scratch scope.Scratch // rewriteLogical's working copy of g
	dst     *scope.Store  // where the rewrite's result is kept
	stats   StatsProvider
	env     Environment
	est     cardEngine

	// sig and estimation back ruleTable.sig and env in rewriteLogical, so
	// that a compilation's signature and environment live in the pool
	// rather than on the heap.
	sig        rules.Signature
	estimation EstimationEnv

	// nodes is the DAG in topological order (inputs before consumers) and
	// parents[id] the consumers of node id, both as of the last refresh;
	// seen is the walk's marks.
	nodes   []*scope.Node
	parents [][]*scope.Node
	seen    []bool

	// noMerge marks, by ID, filters produced by SplitComplexFilter so that
	// MergeFilters does not undo the split in the same compilation.
	noMerge []bool

	needed colSets         // neededColumns' result
	refs   []*scope.ColRef // scratch: column references of one expression
	conj   []scope.Expr    // scratch: conjuncts of one predicate

	// inferred and inferredRef are the predicate join predicate inference
	// would add, built here to check for it before it is cut from dst.
	inferred    scope.BinaryExpr
	inferredRef scope.ColRef
}

var rewriterPool = sync.Pool{New: func() any { return new(rewriter) }}

// release drops everything that points into the caller's world — the
// graph, the working copy, and every pointer slot of the scratch, up to
// its capacity — and pools rw. The scratch keeps its capacity.
func (rw *rewriter) release() {
	rw.ruleTable, rw.g, rw.dst, rw.stats, rw.env = ruleTable{}, nil, nil, nil, nil
	rw.inferred, rw.inferredRef = scope.BinaryExpr{}, scope.ColRef{}
	rw.scratch.Reset()
	rw.estimation = EstimationEnv{}
	rw.est.release()
	clearCap(rw.nodes)
	for _, ps := range rw.parents[:cap(rw.parents)] {
		clearCap(ps)
	}
	clearCap(rw.refs)
	clearCap(rw.conj)
	rewriterPool.Put(rw)
}

// clearCap zeroes s up to its capacity.
func clearCap[T any](s []T) { clear(s[:cap(s)]) }

// gate returns the stable gating hash of a node: FNV-1a of its site key
// when it has one (stable across rewrites), else its structural
// fingerprint.
func gate(n *scope.Node) uint64 {
	var buf [128]byte
	k := n.AppendSiteKey(buf[:0])
	if len(k) == 0 {
		return n.Fingerprint()
	}
	return scope.FNV1a(scope.FNVOffset64, k)
}

// refresh rebuilds the node order, the parent lists and the cardinality
// memo after a mutation.
func (rw *rewriter) refresh() {
	bound := rw.g.IDBound()
	rw.seen = zeroed(rw.seen, bound)
	rw.nodes = rw.g.AppendNodes(rw.nodes[:0], rw.seen)
	// Truncate rather than drop: each list keeps its backing array.
	rw.parents = grown(rw.parents, bound)
	for i := range rw.parents {
		rw.parents[i] = rw.parents[i][:0]
	}
	for _, n := range rw.nodes {
		for _, in := range n.Inputs {
			rw.parents[in.ID] = append(rw.parents[in.ID], n)
		}
	}
	rw.est.reset(rw.env, rw.stats, bound)
}

// singleParent reports whether n has exactly one consumer and is not a root.
func (rw *rewriter) singleParent(n *scope.Node) bool {
	for _, r := range rw.g.Roots {
		if r == n {
			return false
		}
	}
	return len(rw.parents[n.ID]) == 1
}

// replaceEverywhere rewires every consumer (and root slot) of old to new.
func (rw *rewriter) replaceEverywhere(old, new *scope.Node) {
	for _, p := range rw.parents[old.ID] {
		for i, in := range p.Inputs {
			if in == old {
				p.Inputs[i] = new
			}
		}
	}
	for i, r := range rw.g.Roots {
		if r == old {
			rw.g.Roots[i] = new
		}
	}
}

// run applies rewrites to fixpoint, then the global one-shot analyses.
func (rw *rewriter) run() {
	rw.fixpoint()
	rw.refresh()
	rw.trySemiJoinReduction()
	rw.refresh()
	rw.tryPruneColumns()
	rw.recomputeSchemas()
}

// fixpoint fires one rewrite at a time until none applies.
func (rw *rewriter) fixpoint() {
	for fires := 0; fires < maxRewriteFires; fires++ {
		rw.refresh()
		if !rw.tryAll() {
			break
		}
	}
}

// rewrites lists, per operator kind, the rewrites tried on a node of that
// kind, in order.
var rewrites = [scope.OpOutput + 1][]func(*rewriter, *scope.Node) bool{
	scope.OpFilter: {
		(*rewriter).tryPushFilterIntoScan, (*rewriter).tryPushFilterBelowProject,
		(*rewriter).tryPushFilterBelowJoin, (*rewriter).tryPushFilterBelowUnion,
		(*rewriter).tryPushFilterBelowAgg, (*rewriter).trySplitComplexFilter,
		(*rewriter).tryMergeFilters, (*rewriter).tryProjectPullUp,
	},
	scope.OpProject:  {(*rewriter).tryMergeProjects},
	scope.OpDistinct: {(*rewriter).tryEliminateDistinct, (*rewriter).tryUnionDedupPushdown, (*rewriter).tryDistinctToAgg},
	scope.OpAgg:      {(*rewriter).tryPartialAggBelowJoin, (*rewriter).tryLocalGlobalAgg},
	scope.OpJoin: {
		(*rewriter).tryJoinCommute, (*rewriter).tryJoinAssociate,
		(*rewriter).tryBroadcastAnnotation, (*rewriter).tryJoinPredicateInference,
	},
	scope.OpSort:  {(*rewriter).tryRemoveRedundantSort},
	scope.OpTop:   {(*rewriter).tryTopNPushdown},
	scope.OpUnion: {(*rewriter).tryFlattenUnion},
}

// tryAll attempts one rewrite anywhere in the DAG and reports whether one
// fired. Nodes are visited in topological order for determinism.
func (rw *rewriter) tryAll() bool {
	for _, n := range rw.nodes {
		for _, try := range rewrites[n.Kind] {
			if try(rw, n) {
				return true
			}
		}
	}
	return false
}

// Schemas are copy-on-write. A cloned node shares its Cols and GroupBy
// with the graph it was cloned from (see scope.Graph.Clone), so a schema
// is never written in place: a node that takes its input's schema shares
// that slice, and one whose schema changes gets a new slice.

func hasCol(cols []scope.Column, name string) bool {
	_, ok := findCol(cols, name)
	return ok
}

// colRefs returns the column references of e in rw's scratch: valid until
// the next call.
func (rw *rewriter) colRefs(e scope.Expr) []*scope.ColRef {
	rw.refs = scope.CollectColRefs(e, rw.refs[:0])
	return rw.refs
}

// newFilter creates a filter node over input with the given predicate.
func (rw *rewriter) newFilter(pred scope.Expr, input *scope.Node) *scope.Node {
	f := rw.g.NewNode(scope.OpFilter, input)
	f.Pred = pred
	f.Cols = input.Cols
	return f
}

// --- Filter rewrites ---

func (rw *rewriter) tryPushFilterIntoScan(f *scope.Node) bool {
	in := f.Inputs[0]
	if in.Kind != scope.OpScan || !rw.singleParent(in) {
		return false
	}
	r, ok := rw.pick(rules.KindPushFilterIntoScan, gate(f))
	if !ok {
		return false
	}
	if in.Pred == nil {
		in.Pred = f.Pred
	} else {
		in.Pred = rw.dst.Binary(scope.BinaryExpr{Op: "AND", Left: in.Pred, Right: f.Pred})
	}
	rw.replaceEverywhere(f, in)
	rw.fire(r)
	return true
}

func (rw *rewriter) tryPushFilterBelowProject(f *scope.Node) bool {
	in := f.Inputs[0]
	if in.Kind != scope.OpProject || !rw.singleParent(in) {
		return false
	}
	// Every reference must be to a column the project passes through.
	for _, ref := range rw.colRefs(f.Pred) {
		if e, _ := in.Projection(ref.Name); !isColRef(e) {
			return false
		}
	}
	r, ok := rw.pick(rules.KindPushFilterBelowProject, gate(f))
	if !ok {
		return false
	}
	// A pass-through column maps a reference to an equal one, which
	// MapRefs keeps: a filter on such columns alone moves down with its own
	// predicate, copying nothing.
	nf := rw.newFilter(rw.dst.MapRefs(f.Pred, in.Projection), in.Inputs[0])
	in.Inputs[0] = nf
	rw.replaceEverywhere(f, in)
	rw.fire(r)
	return true
}

func isColRef(e scope.Expr) bool {
	_, ok := e.(*scope.ColRef)
	return ok
}

// renamedRef is a MapRefs lookup's answer for a reference to from that
// names to instead: a new reference, or none when the name is unchanged.
func renamedRef(from, to string) (scope.Expr, bool) {
	if to == from {
		return nil, false
	}
	return &scope.ColRef{Name: to}, true
}

// A join's merged output columns fall on two sides. The left side is the
// left input's columns, by name. A merged column is on the right side when
// it is not on the left and the name it had before the merge renamed it —
// RightRenames maps merged to original; absent means unrenamed — is a
// column of the right input.

// onLeft reports whether name is one of join j's left-side columns.
func onLeft(j *scope.Node, name string) bool { return hasCol(j.Inputs[0].Cols, name) }

// rightOrig returns the right input's name for j's merged output column
// name, and whether name is a right-side column at all.
func rightOrig(j *scope.Node, name string) (string, bool) {
	if onLeft(j, name) || !hasCol(j.Cols, name) {
		return "", false
	}
	orig := name
	if o, ok := j.RightRenames[name]; ok {
		orig = o
	}
	return orig, hasCol(j.Inputs[1].Cols, orig)
}

func (rw *rewriter) tryPushFilterBelowJoin(f *scope.Node) bool {
	j := f.Inputs[0]
	if j.Kind != scope.OpJoin || j.JoinType != scope.JoinInner || !rw.singleParent(j) {
		return false
	}
	r, ok := rw.pick(rules.KindPushFilterBelowJoin, gate(f))
	if !ok {
		return false
	}
	var pushLeft, pushRight, remain []scope.Expr
	rw.conj = scope.AppendConjuncts(rw.conj[:0], f.Pred)
	for _, c := range rw.conj {
		refs := rw.colRefs(c)
		allLeft, allRight := len(refs) > 0, len(refs) > 0
		for _, ref := range refs {
			allLeft = allLeft && onLeft(j, ref.Name)
			if _, ok := rightOrig(j, ref.Name); !ok {
				allRight = false
			}
		}
		switch {
		case allLeft:
			pushLeft = append(pushLeft, c)
		case allRight:
			pushRight = append(pushRight, rw.dst.MapRefs(c, func(name string) (scope.Expr, bool) {
				orig, _ := rightOrig(j, name)
				return renamedRef(name, orig)
			}))
		default:
			remain = append(remain, c)
		}
	}
	if len(pushLeft) == 0 && len(pushRight) == 0 {
		return false
	}
	if len(pushLeft) > 0 {
		j.Inputs[0] = rw.newFilter(rw.dst.AndAll(pushLeft), j.Inputs[0])
	}
	if len(pushRight) > 0 {
		j.Inputs[1] = rw.newFilter(rw.dst.AndAll(pushRight), j.Inputs[1])
	}
	if len(remain) == 0 {
		rw.replaceEverywhere(f, j)
	} else {
		f.Pred = rw.dst.AndAll(remain)
	}
	rw.fire(r)
	return true
}

func (rw *rewriter) tryPushFilterBelowUnion(f *scope.Node) bool {
	u := f.Inputs[0]
	if u.Kind != scope.OpUnion || !rw.singleParent(u) {
		return false
	}
	r, ok := rw.pick(rules.KindPushFilterBelowUnion, gate(f))
	if !ok {
		return false
	}
	for i, in := range u.Inputs {
		u.Inputs[i] = rw.newFilter(rw.dst.MapRefs(f.Pred, func(name string) (scope.Expr, bool) {
			return renamedRef(name, unionName(u, in, name))
		}), in)
	}
	rw.replaceEverywhere(f, u)
	rw.fire(r)
	return true
}

func (rw *rewriter) tryPushFilterBelowAgg(f *scope.Node) bool {
	a := f.Inputs[0]
	if a.Kind != scope.OpAgg || a.Partial || !rw.singleParent(a) {
		return false
	}
	for _, ref := range rw.colRefs(f.Pred) {
		if !hasCol(a.GroupBy, ref.Name) {
			return false
		}
	}
	r, ok := rw.pick(rules.KindPushFilterBelowAgg, gate(f))
	if !ok {
		return false
	}
	a.Inputs[0] = rw.newFilter(f.Pred, a.Inputs[0])
	rw.replaceEverywhere(f, a)
	rw.fire(r)
	return true
}

func (rw *rewriter) trySplitComplexFilter(f *scope.Node) bool {
	if rw.unmergeable(f) {
		return false
	}
	rw.conj = scope.AppendConjuncts(rw.conj[:0], f.Pred)
	conjs := rw.conj
	if len(conjs) < 2 {
		return false
	}
	// Splitting only helps when the pieces can move independently; gate
	// it to filters sitting on joins or unions.
	below := f.Inputs[0].Kind
	if below != scope.OpJoin && below != scope.OpUnion {
		return false
	}
	r, ok := rw.pick(rules.KindSplitComplexFilter, gate(f))
	if !ok {
		return false
	}
	bottom := rw.newFilter(conjs[len(conjs)-1], f.Inputs[0])
	top := rw.newFilter(rw.dst.AndAll(conjs[:len(conjs)-1]), bottom)
	rw.noMerge = grown(rw.noMerge, top.ID+1) // top is the newest node
	rw.noMerge[bottom.ID], rw.noMerge[top.ID] = true, true
	rw.replaceEverywhere(f, top)
	rw.fire(r)
	return true
}

func (rw *rewriter) unmergeable(f *scope.Node) bool {
	return f.ID < len(rw.noMerge) && rw.noMerge[f.ID]
}

func (rw *rewriter) tryMergeFilters(f *scope.Node) bool {
	in := f.Inputs[0]
	if in.Kind != scope.OpFilter || !rw.singleParent(in) || rw.unmergeable(f) || rw.unmergeable(in) {
		return false
	}
	r, ok := rw.pick(rules.KindMergeFilters, gate(f))
	if !ok {
		return false
	}
	f.Pred = rw.dst.Binary(scope.BinaryExpr{Op: "AND", Left: in.Pred, Right: f.Pred})
	f.Inputs[0] = in.Inputs[0]
	rw.fire(r)
	return true
}

func (rw *rewriter) tryProjectPullUp(f *scope.Node) bool {
	p := f.Inputs[0]
	if p.Kind != scope.OpProject || !rw.singleParent(p) {
		return false
	}
	// Only fire when filter pushdown below the project is impossible:
	// at least one referenced projection is a computed expression.
	computed := false
	for _, ref := range rw.colRefs(f.Pred) {
		e, ok := p.Projection(ref.Name)
		if !ok {
			return false
		}
		computed = computed || !isColRef(e)
	}
	if !computed {
		return false
	}
	r, ok := rw.pick(rules.KindProjectPullUp, gate(f))
	if !ok {
		return false
	}
	nf := rw.newFilter(rw.dst.MapRefs(f.Pred, p.Projection), p.Inputs[0])
	p.Inputs[0] = nf
	rw.replaceEverywhere(f, p)
	rw.fire(r)
	return true
}

// --- Project rewrites ---

func (rw *rewriter) tryMergeProjects(p *scope.Node) bool {
	in := p.Inputs[0]
	if in.Kind != scope.OpProject || !rw.singleParent(in) {
		return false
	}
	r, ok := rw.pick(rules.KindMergeProjects, gate(p))
	if !ok {
		return false
	}
	for i := range p.Projs {
		p.Projs[i].E = rw.dst.MapRefs(p.Projs[i].E, in.Projection)
	}
	p.Inputs[0] = in.Inputs[0]
	rw.fire(r)
	return true
}

// --- Distinct rewrites ---

func (rw *rewriter) tryEliminateDistinct(d *scope.Node) bool {
	in := d.Inputs[0]
	inRows := rw.est.rows(in)
	outRows := rw.est.rows(d)
	if outRows < inRows*0.95 {
		return false
	}
	r, ok := rw.pick(rules.KindEliminateDistinctOnKey, gate(d))
	if !ok {
		return false
	}
	rw.replaceEverywhere(d, in)
	rw.fire(r)
	return true
}

func (rw *rewriter) tryUnionDedupPushdown(d *scope.Node) bool {
	u := d.Inputs[0]
	if u.Kind != scope.OpUnion || !rw.singleParent(u) {
		return false
	}
	r, ok := rw.pick(rules.KindUnionDedupPushdown, gate(d))
	if !ok {
		return false
	}
	fired := false
	for i, in := range u.Inputs {
		if in.Kind == scope.OpDistinct || in.Kind == scope.OpAgg {
			continue
		}
		nd := rw.g.NewNode(scope.OpDistinct, in)
		nd.Cols = in.Cols
		u.Inputs[i] = nd
		fired = true
	}
	if !fired {
		return false
	}
	rw.fire(r)
	return true
}

func (rw *rewriter) tryDistinctToAgg(d *scope.Node) bool {
	r, ok := rw.pick(rules.KindDistinctToAgg, gate(d))
	if !ok {
		return false
	}
	a := rw.g.NewNode(scope.OpAgg, d.Inputs[0])
	a.GroupBy = d.Cols
	a.Cols = d.Cols
	rw.replaceEverywhere(d, a)
	rw.fire(r)
	return true
}

// --- Aggregation rewrites ---

// decomposableAggs reports whether every aggregate can be split into a
// partial and final phase.
func decomposableAggs(aggs []scope.AggSpec) bool {
	for _, a := range aggs {
		if a.Func == "AVG" {
			return false
		}
	}
	return true
}

// tryLocalGlobalAgg splits an aggregation into a partial (pre-shuffle)
// and final phase. The partial aggregation is modelled as a row-reducing
// pass-through: it keeps its input schema and shrinks cardinality, which
// is what matters to cost and data volume.
func (rw *rewriter) tryLocalGlobalAgg(a *scope.Node) bool {
	if a.Partial || len(a.GroupBy) == 0 || !decomposableAggs(a.Aggs) {
		return false
	}
	in := a.Inputs[0]
	if in.Kind == scope.OpAgg && in.Partial {
		return false // already split
	}
	r, ok := rw.pick(rules.KindLocalGlobalAgg, gate(a))
	if !ok {
		return false
	}
	a.Inputs[0] = rw.newPartialAgg(in, a.GroupBy)
	rw.fire(r)
	return true
}

// newPartialAgg creates a partial aggregation of in by the given keys.
func (rw *rewriter) newPartialAgg(in *scope.Node, groupBy []scope.Column) *scope.Node {
	partial := rw.g.NewNode(scope.OpAgg, in)
	partial.Partial = true
	partial.GroupBy = groupBy
	partial.Cols = in.Cols
	return partial
}

func (rw *rewriter) tryPartialAggBelowJoin(a *scope.Node) bool {
	if a.Partial || len(a.GroupBy) == 0 || !decomposableAggs(a.Aggs) {
		return false
	}
	j := a.Inputs[0]
	if j.Kind != scope.OpJoin || j.JoinType != scope.JoinInner || !rw.singleParent(j) {
		return false
	}
	if j.Inputs[0].Kind == scope.OpAgg && j.Inputs[0].Partial {
		return false
	}
	// Everything the aggregation reads must come from the left side.
	rw.refs = rw.refs[:0]
	for _, spec := range a.Aggs {
		rw.refs = scope.CollectColRefs(spec.Arg, rw.refs) // a nil Arg (COUNT(*)) has none
	}
	for _, ref := range rw.refs {
		if !onLeft(j, ref.Name) {
			return false
		}
	}
	for _, g := range a.GroupBy {
		if !onLeft(j, g.Name) {
			return false
		}
	}
	r, ok := rw.pick(rules.KindPartialAggBelowJoin, gate(a))
	if !ok {
		return false
	}
	// Key the partial agg by the aggregation keys plus the left-side join
	// keys so the join result is preserved.
	rw.refs = scope.CollectColRefs(j.JoinCond, rw.refs)
	isKey := func(c scope.Column) bool {
		key := hasCol(a.GroupBy, c.Name)
		for _, ref := range rw.refs {
			key = key || ref.Name == c.Name
		}
		return key
	}
	n := 0
	for _, c := range j.Inputs[0].Cols {
		if isKey(c) {
			n++
		}
	}
	var keys []scope.Column
	if n > 0 {
		keys = rw.dst.Columns(n)[:0]
		for _, c := range j.Inputs[0].Cols {
			if isKey(c) {
				keys = append(keys, c)
			}
		}
	}
	j.Inputs[0] = rw.newPartialAgg(j.Inputs[0], keys)
	rw.fire(r)
	return true
}

// --- Join rewrites ---

func (rw *rewriter) tryJoinCommute(j *scope.Node) bool {
	if j.JoinType != scope.JoinInner || j.BuildLeft {
		return false
	}
	l := rw.est.rows(j.Inputs[0])
	rr := rw.est.rows(j.Inputs[1])
	if l >= rr {
		return false // right is already the smaller (build) side
	}
	r, ok := rw.pick(rules.KindJoinCommute, gate(j))
	if !ok {
		return false
	}
	j.BuildLeft = true
	rw.fire(r)
	return true
}

// tryJoinAssociate rotates a left-deep pair of inner joins
// (A ⋈ B) ⋈ C into A ⋈ (B ⋈ C) when the outer condition only touches
// B and C and the rotation shrinks the intermediate result. The rule is
// experimental (off by default): join reordering is very sensitive to
// cardinality estimates.
func (rw *rewriter) tryJoinAssociate(j *scope.Node) bool {
	if j.JoinType != scope.JoinInner {
		return false
	}
	inner := j.Inputs[0]
	if inner.Kind != scope.OpJoin || inner.JoinType != scope.JoinInner || !rw.singleParent(inner) {
		return false
	}
	// Renamed columns make reference rewiring ambiguous; require the
	// simple disjoint-name case (identity mappings are fine).
	if hasRealRenames(j.RightRenames) || hasRealRenames(inner.RightRenames) {
		return false
	}
	a, bNode, c := inner.Inputs[0], inner.Inputs[1], j.Inputs[1]
	// The outer condition must be evaluable on B ⋈ C alone.
	for _, ref := range rw.colRefs(j.JoinCond) {
		if hasCol(a.Cols, ref.Name) {
			return false
		}
	}
	r, ok := rw.pick(rules.KindJoinAssociate, gate(j))
	if !ok {
		return false
	}
	// Build the candidate B ⋈ C and keep the rotation only if it shrinks
	// the intermediate result.
	inner2 := rw.g.NewNode(scope.OpJoin, bNode, c)
	inner2.JoinType = scope.JoinInner
	inner2.JoinCond = j.JoinCond
	inner2.Cols = rw.concat(bNode.Cols, c.Cols)
	if rw.est.rows(inner2) >= rw.est.rows(inner) {
		return false // abandoned candidate node is unreachable garbage
	}
	j.Inputs[0] = a
	j.Inputs[1] = inner2
	j.JoinCond = inner.JoinCond
	j.Cols = rw.concat(a.Cols, inner2.Cols)
	j.BuildLeft = false
	rw.fire(r)
	return true
}

// hasRealRenames reports whether any merged column name differs from the
// original right-side name.
func hasRealRenames(m map[string]string) bool {
	for merged, orig := range m {
		if merged != orig {
			return true
		}
	}
	return false
}

// broadcastThresholds maps the rule variant to the maximum build-side
// cardinality eligible for broadcasting.
var broadcastThresholds = []float64{2e5, 1e6, 5e6}

func (rw *rewriter) tryBroadcastAnnotation(j *scope.Node) bool {
	if j.BroadcastRight || j.JoinType == scope.JoinFull {
		return false
	}
	r, ok := rw.pick(rules.KindBroadcastAnnotation, gate(j))
	if !ok {
		return false
	}
	build := j.Inputs[1]
	if j.BuildLeft {
		build = j.Inputs[0]
	}
	threshold := broadcastThresholds[r.Variant%len(broadcastThresholds)]
	if rw.est.rows(build) >= threshold {
		return false
	}
	j.BroadcastRight = true
	rw.fire(r)
	return true
}

func (rw *rewriter) tryJoinPredicateInference(j *scope.Node) bool {
	if j.JoinType != scope.JoinInner {
		return false
	}
	lf := j.Inputs[0]
	if lf.Kind != scope.OpFilter {
		return false
	}
	// Find an equi-join key pair and a literal equality on the left key.
	leftKey, rightKey := equiKeys(j)
	if leftKey == "" {
		return false
	}
	var lit scope.Expr
	rw.conj = scope.AppendConjuncts(rw.conj[:0], lf.Pred)
	for _, c := range rw.conj {
		be, ok := c.(*scope.BinaryExpr)
		if !ok || be.Op != "==" {
			continue
		}
		if cr, isRef := be.Left.(*scope.ColRef); isRef && cr.Name == leftKey {
			if isLiteral(be.Right) {
				lit = be.Right
			}
		}
	}
	if lit == nil {
		return false
	}
	rw.inferredRef = scope.ColRef{Name: rightKey}
	rw.inferred = scope.BinaryExpr{Op: "==", Left: &rw.inferredRef, Right: lit}
	// Don't re-infer a filter that is already there.
	if rf := j.Inputs[1]; rf.Kind == scope.OpFilter {
		rw.conj = scope.AppendConjuncts(rw.conj[:0], rf.Pred)
		for _, c := range rw.conj {
			if c.String() == rw.inferred.String() {
				return false
			}
		}
	}
	r, ok := rw.pick(rules.KindJoinPredicateInference, gate(j))
	if !ok {
		return false
	}
	inferred := rw.dst.Binary(scope.BinaryExpr{Op: "==", Left: &scope.ColRef{Name: rightKey}, Right: lit})
	j.Inputs[1] = rw.newFilter(inferred, j.Inputs[1])
	rw.fire(r)
	return true
}

func isLiteral(e scope.Expr) bool {
	switch e.(type) {
	case *scope.IntLit, *scope.FloatLit, *scope.StringLit, *scope.BoolLit:
		return true
	default:
		return false
	}
}

// equiKeys returns the first equi-join key pair (left column, right
// column in the right input's original naming) of a join, or empty strings.
func equiKeys(j *scope.Node) (leftKey, rightKey string) { return equiKeysIn(j, j.JoinCond) }

// equiKeysIn is equiKeys over the conjuncts of e, in order.
func equiKeysIn(j *scope.Node, e scope.Expr) (leftKey, rightKey string) {
	be, ok := e.(*scope.BinaryExpr)
	if !ok {
		return "", ""
	}
	if be.Op == "AND" {
		if l, r := equiKeysIn(j, be.Left); l != "" {
			return l, r
		}
		return equiKeysIn(j, be.Right)
	}
	a, aok := be.Left.(*scope.ColRef)
	b, bok := be.Right.(*scope.ColRef)
	if be.Op != "==" || !aok || !bok {
		return "", ""
	}
	// Either order; a right column may be unrenamed.
	for _, p := range [2][2]string{{a.Name, b.Name}, {b.Name, a.Name}} {
		if !onLeft(j, p[0]) {
			continue
		}
		if orig, ok := rightOrig(j, p[1]); ok {
			return p[0], orig
		}
		if hasCol(j.Inputs[1].Cols, p[1]) {
			return p[0], p[1]
		}
	}
	return "", ""
}

// --- Sort / Top / Union rewrites ---

// orderDestroying reports whether a consumer does not preserve input order.
func orderDestroying(k scope.OpKind) bool {
	switch k {
	case scope.OpAgg, scope.OpDistinct, scope.OpJoin, scope.OpUnion:
		return true
	default:
		return false
	}
}

func (rw *rewriter) tryRemoveRedundantSort(s *scope.Node) bool {
	ps := rw.parents[s.ID]
	if len(ps) == 0 {
		return false // root-adjacent sorts handled below via Output parents
	}
	for _, p := range ps {
		if !orderDestroying(p.Kind) {
			return false
		}
	}
	r, ok := rw.pick(rules.KindRemoveRedundantSort, gate(s))
	if !ok {
		return false
	}
	rw.replaceEverywhere(s, s.Inputs[0])
	rw.fire(r)
	return true
}

func (rw *rewriter) tryTopNPushdown(t *scope.Node) bool {
	u := t.Inputs[0]
	if u.Kind != scope.OpUnion || !rw.singleParent(u) {
		return false
	}
	// Skip if the inputs already carry this Top.
	for _, in := range u.Inputs {
		if in.Kind == scope.OpTop && in.TopN == t.TopN {
			return false
		}
	}
	r, ok := rw.pick(rules.KindTopNPushdown, gate(t))
	if !ok {
		return false
	}
	for i, in := range u.Inputs {
		nt := rw.g.NewNode(scope.OpTop, in)
		nt.TopN = t.TopN
		for _, k := range t.SortKeys {
			name := unionName(u, in, k.Col.Name)
			nt.SortKeys = append(nt.SortKeys, scope.SortKey{Col: &scope.ColRef{Name: name}, Desc: k.Desc})
		}
		nt.Cols = in.Cols
		u.Inputs[i] = nt
	}
	rw.fire(r)
	return true
}

// unionName returns input in's name for union u's column name: the input
// column at the position of u's last column so named, or name itself when
// no such position lies within both schemas.
func unionName(u, in *scope.Node, name string) string {
	for pos := min(len(u.Cols), len(in.Cols)) - 1; pos >= 0; pos-- {
		if u.Cols[pos].Name == name {
			return in.Cols[pos].Name
		}
	}
	return name
}

func (rw *rewriter) tryFlattenUnion(u *scope.Node) bool {
	idx := -1
	for i, in := range u.Inputs {
		if in.Kind == scope.OpUnion && rw.singleParent(in) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	r, ok := rw.pick(rules.KindFlattenUnion, gate(u))
	if !ok {
		return false
	}
	inner := u.Inputs[idx]
	spliced := make([]*scope.Node, 0, len(u.Inputs)+len(inner.Inputs)-1)
	spliced = append(spliced, u.Inputs[:idx]...)
	spliced = append(spliced, inner.Inputs...)
	spliced = append(spliced, u.Inputs[idx+1:]...)
	u.Inputs = spliced
	rw.fire(r)
	return true
}

// --- Global analyses ---

// neededColumns computes into rw.needed, for every node, the set of its
// output columns required by its consumers (all columns for roots).
func (rw *rewriter) neededColumns() {
	nodes, needed := rw.nodes, &rw.needed
	needed.reset(rw.g.IDBound())
	for _, r := range rw.g.Roots {
		needed.addAll(r.ID, r.Cols)
	}
	// Reverse topological order: consumers before producers.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		switch n.Kind {
		case scope.OpFilter:
			in := n.Inputs[0]
			needed.union(in.ID, n.ID)
			needed.addRefs(in.ID, rw.colRefs(n.Pred))
		case scope.OpProject:
			in := n.Inputs[0]
			for _, p := range n.Projs {
				if needed.has(n.ID, p.Name) {
					needed.addRefs(in.ID, rw.colRefs(p.E))
				}
			}
		case scope.OpJoin:
			l, rr := n.Inputs[0], n.Inputs[1]
			propagate := func(name string) {
				if onLeft(n, name) {
					needed.add(l.ID, name)
				} else if orig, ok := rightOrig(n, name); ok {
					needed.add(rr.ID, orig)
				} else {
					// Unrenamed right column.
					needed.add(rr.ID, name)
				}
			}
			for b, name := range needed.names { // names added below are not in n's set
				if needed.holds(n.ID, b) {
					propagate(name)
				}
			}
			for _, ref := range rw.colRefs(n.JoinCond) {
				propagate(ref.Name)
			}
		case scope.OpAgg:
			in := n.Inputs[0]
			if n.Partial {
				needed.union(in.ID, n.ID)
			}
			needed.addAll(in.ID, n.GroupBy)
			for _, a := range n.Aggs {
				if a.Arg != nil {
					needed.addRefs(in.ID, rw.colRefs(a.Arg))
				}
			}
		case scope.OpDistinct:
			needed.addAll(n.Inputs[0].ID, n.Inputs[0].Cols)
		case scope.OpUnion:
			for _, in := range n.Inputs {
				for pos, c := range n.Cols {
					if needed.has(n.ID, c.Name) && pos < len(in.Cols) {
						needed.add(in.ID, in.Cols[pos].Name)
					}
				}
			}
		case scope.OpSort, scope.OpTop:
			in := n.Inputs[0]
			needed.union(in.ID, n.ID)
			for _, k := range n.SortKeys {
				needed.add(in.ID, k.Col.Name)
			}
		case scope.OpReduce, scope.OpProcess, scope.OpOutput:
			if len(n.Inputs) > 0 {
				needed.addAll(n.Inputs[0].ID, n.Inputs[0].Cols)
			}
		}
	}
}

// tryPruneColumns narrows scan schemas to the columns actually required
// upstream, the classic column-pruning optimization. Each scan is gated by
// its own PruneColumns sibling rule.
func (rw *rewriter) tryPruneColumns() {
	rw.neededColumns()
	for _, n := range rw.nodes {
		if n.Kind != scope.OpScan {
			continue
		}
		if n.Pred != nil {
			rw.needed.addRefs(n.ID, rw.colRefs(n.Pred))
		}
		keep := 0
		for _, c := range n.Cols {
			if rw.needed.has(n.ID, c.Name) {
				keep++
			}
		}
		if keep == len(n.Cols) || (keep == 0 && len(n.Cols) == 1) {
			continue
		}
		r, ok := rw.pick(rules.KindPruneColumns, gate(n))
		if !ok {
			continue
		}
		if keep == 0 {
			n.Cols = n.Cols[:1]
		} else {
			kept := rw.dst.Columns(keep)[:0]
			for _, c := range n.Cols {
				if rw.needed.has(n.ID, c.Name) {
					kept = append(kept, c)
				}
			}
			n.Cols = kept
		}
		rw.fire(r)
	}
}

// trySemiJoinReduction converts inner joins whose right side contributes
// no output columns into semi joins.
func (rw *rewriter) trySemiJoinReduction() {
	rw.neededColumns()
	for _, n := range rw.nodes {
		if n.Kind != scope.OpJoin || n.JoinType != scope.JoinInner {
			continue
		}
		if !HasEquiCond(n.JoinCond) {
			continue
		}
		// Any needed column not from the left comes from the right.
		usesRight := false
		for b, name := range rw.needed.names {
			usesRight = usesRight || (rw.needed.holds(n.ID, b) && !onLeft(n, name))
		}
		if usesRight {
			continue
		}
		r, ok := rw.pick(rules.KindSemiJoinReduction, gate(n))
		if !ok {
			continue
		}
		n.JoinType = scope.JoinSemi
		n.Cols = n.Inputs[0].Cols
		n.RightRenames = nil
		rw.fire(r)
	}
}

// recomputeSchemas refreshes the Cols of every node after pruning and
// structural rewrites so that row widths reflect the final plan.
func (rw *rewriter) recomputeSchemas() {
	for _, n := range rw.nodes { // topological: inputs first
		switch n.Kind {
		case scope.OpScan, scope.OpReduce, scope.OpProcess:
			// Own schema: unchanged.
		case scope.OpFilter, scope.OpSort, scope.OpTop, scope.OpDistinct, scope.OpOutput:
			n.Cols = n.Inputs[0].Cols
		case scope.OpProject:
			// Keep projection outputs; they are independent of input width.
		case scope.OpJoin:
			if n.JoinType == scope.JoinSemi {
				n.Cols = n.Inputs[0].Cols
			} else if cols := joinCols(rw.dst, n); cols != nil {
				n.Cols = cols
			}
		case scope.OpAgg:
			if n.Partial {
				n.Cols = n.Inputs[0].Cols
			} else if cols := aggCols(rw.dst, n); cols != nil {
				n.Cols = cols
			}
		case scope.OpUnion:
			// Keep names, bound widths by the first input.
			if first := n.Inputs[0]; len(first.Cols) == len(n.Cols) {
				for i, c := range first.Cols {
					if c.Type != n.Cols[i].Type {
						n.Cols = rw.concat(n.Cols, nil)
						for j := i; j < len(n.Cols); j++ {
							n.Cols[j].Type = first.Cols[j].Type
						}
						break
					}
				}
			}
		}
	}
}

// mergedName is the name join j gives right input column name: its
// merged name when the join renamed it.
func mergedName(j *scope.Node, name string) string {
	for merged, orig := range j.RightRenames {
		if orig == name {
			name = merged
		}
	}
	return name
}

// concat returns a new column list, cut from rw.dst, holding a and then b.
func (rw *rewriter) concat(a, b []scope.Column) []scope.Column {
	cols := rw.dst.Columns(len(a) + len(b))
	copy(cols[copy(cols, a):], b)
	return cols
}

// joinCols returns inner join j's schema refreshed from its inputs — the
// left input's columns, then the right's under their merged names — cut
// from dst, or nil when j.Cols already is it.
func joinCols(dst *scope.Store, j *scope.Node) []scope.Column {
	left, right := j.Inputs[0].Cols, j.Inputs[1].Cols
	same := len(j.Cols) == len(left)+len(right) && slices.Equal(j.Cols[:len(left)], left)
	for i := 0; same && i < len(right); i++ {
		c := right[i]
		c.Name = mergedName(j, c.Name)
		same = j.Cols[len(left)+i] == c
	}
	if same {
		return nil
	}
	cols := dst.Columns(len(left) + len(right))
	copy(cols, left)
	for i, c := range right {
		c.Name = mergedName(j, c.Name)
		cols[len(left)+i] = c
	}
	return cols
}

// aggCols returns final aggregation a's schema refreshed — its group-by
// columns, then one per aggregate, keeping the type a.Cols gave it (double
// when it has none) — cut from dst, or nil when a.Cols already is it.
func aggCols(dst *scope.Store, a *scope.Node) []scope.Column {
	aggCol := func(spec scope.AggSpec) scope.Column {
		if c, ok := a.FindCol(spec.Name); ok {
			return c
		}
		return scope.Column{Name: spec.Name, Type: scope.TypeDouble}
	}
	same := len(a.Cols) == len(a.GroupBy)+len(a.Aggs) && slices.Equal(a.Cols[:len(a.GroupBy)], a.GroupBy)
	for i := 0; same && i < len(a.Aggs); i++ {
		same = a.Cols[len(a.GroupBy)+i] == aggCol(a.Aggs[i])
	}
	if same {
		return nil
	}
	var cols []scope.Column
	if k := len(a.GroupBy) + len(a.Aggs); k > 0 {
		cols = dst.Columns(k)[:0]
	}
	cols = append(cols, a.GroupBy...)
	for _, spec := range a.Aggs {
		cols = append(cols, aggCol(spec))
	}
	return cols
}

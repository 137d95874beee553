package optimizer

import (
	"math"

	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// maxRewriteFires bounds the number of rule firings per compilation, a
// safety valve against pathological rewrite interactions.
const maxRewriteFires = 400

// rewriter applies the enabled logical transformation rules to a plan DAG
// until fixpoint, recording every fired rule in the signature.
type rewriter struct {
	ruleTable
	g     *scope.Graph
	stats StatsProvider
	env   Environment

	// nodes is the DAG in topological order (inputs before consumers) and
	// parents its reverse edges, both as of the last refresh; seen is the
	// walk's scratch. All three are reused across refreshes.
	nodes   []*scope.Node
	parents map[*scope.Node][]*scope.Node
	seen    map[*scope.Node]struct{}
	est     *cardEngine

	// noMerge marks filters produced by SplitComplexFilter so that
	// MergeFilters does not undo the split in the same compilation.
	noMerge map[*scope.Node]bool
}

func newRewriter(g *scope.Graph, cfg rules.Config, cat *rules.Catalog, sig *rules.Signature, stats StatsProvider, env Environment) *rewriter {
	return &rewriter{
		ruleTable: ruleTable{cat: cat, cfg: cfg, sig: sig},
		g:         g, stats: stats, env: env,
		parents: make(map[*scope.Node][]*scope.Node),
		seen:    make(map[*scope.Node]struct{}),
		noMerge: make(map[*scope.Node]bool),
	}
}

// gate returns the stable gating hash of a node: FNV-1a of its site key
// when it has one (stable across rewrites), else its structural
// fingerprint.
func gate(n *scope.Node) uint64 {
	k := n.SiteKey()
	if k == "" {
		return n.Fingerprint()
	}
	h := uint64(fnvOffset64)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * fnvPrime64
	}
	return h
}

// FNV-1a, 64-bit (hash/fnv's New64a, inlined so a gate costs no hasher).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// refresh rebuilds the node order, the parent map and the cardinality
// memo after a mutation.
func (rw *rewriter) refresh() {
	// Truncate rather than delete: a node rewritten out of the DAG keeps an
	// empty entry, which reads the same as none, and the live ones keep
	// their backing arrays.
	for n, ps := range rw.parents {
		rw.parents[n] = ps[:0]
	}
	clear(rw.seen)
	rw.nodes = rw.nodes[:0]
	for _, r := range rw.g.Roots {
		rw.visit(r)
	}
	for _, n := range rw.nodes {
		for _, in := range n.Inputs {
			rw.parents[in] = append(rw.parents[in], n)
		}
	}
	rw.est = newCardEngine(rw.env, rw.stats)
}

// visit appends n's subtree to rw.nodes in scope.Graph.Nodes order.
func (rw *rewriter) visit(n *scope.Node) {
	if _, ok := rw.seen[n]; ok {
		return
	}
	rw.seen[n] = struct{}{}
	for _, in := range n.Inputs {
		rw.visit(in)
	}
	rw.nodes = append(rw.nodes, n)
}

// singleParent reports whether n has exactly one consumer and is not a root.
func (rw *rewriter) singleParent(n *scope.Node) bool {
	for _, r := range rw.g.Roots {
		if r == n {
			return false
		}
	}
	return len(rw.parents[n]) == 1
}

// replaceEverywhere rewires every consumer (and root slot) of old to new.
func (rw *rewriter) replaceEverywhere(old, new *scope.Node) {
	for _, p := range rw.parents[old] {
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
	fires := 0
	for fires < maxRewriteFires {
		rw.refresh()
		if !rw.tryAll() {
			break
		}
		fires++
	}
	rw.refresh()
	rw.trySemiJoinReduction()
	rw.refresh()
	rw.tryPruneColumns()
	rw.recomputeSchemas()
}

// tryAll attempts one rewrite anywhere in the DAG and reports whether one
// fired. Nodes are visited in topological order for determinism.
func (rw *rewriter) tryAll() bool {
	for _, n := range rw.nodes {
		switch n.Kind {
		case scope.OpFilter:
			if rw.tryPushFilterIntoScan(n) ||
				rw.tryPushFilterBelowProject(n) ||
				rw.tryPushFilterBelowJoin(n) ||
				rw.tryPushFilterBelowUnion(n) ||
				rw.tryPushFilterBelowAgg(n) ||
				rw.trySplitComplexFilter(n) ||
				rw.tryMergeFilters(n) ||
				rw.tryProjectPullUp(n) {
				return true
			}
		case scope.OpProject:
			if rw.tryMergeProjects(n) {
				return true
			}
		case scope.OpDistinct:
			if rw.tryEliminateDistinct(n) ||
				rw.tryUnionDedupPushdown(n) ||
				rw.tryDistinctToAgg(n) {
				return true
			}
		case scope.OpAgg:
			if rw.tryPartialAggBelowJoin(n) ||
				rw.tryLocalGlobalAgg(n) {
				return true
			}
		case scope.OpJoin:
			if rw.tryJoinCommute(n) ||
				rw.tryJoinAssociate(n) ||
				rw.tryBroadcastAnnotation(n) ||
				rw.tryJoinPredicateInference(n) {
				return true
			}
		case scope.OpSort:
			if rw.tryRemoveRedundantSort(n) {
				return true
			}
		case scope.OpTop:
			if rw.tryTopNPushdown(n) {
				return true
			}
		case scope.OpUnion:
			if rw.tryFlattenUnion(n) {
				return true
			}
		}
	}
	return false
}

func copyCols(n *scope.Node) []scope.Column {
	return append([]scope.Column(nil), n.Cols...)
}

// newFilter creates a filter node over input with the given predicate.
func (rw *rewriter) newFilter(pred scope.Expr, input *scope.Node) *scope.Node {
	f := rw.g.NewNode(scope.OpFilter, input)
	f.Pred = pred
	f.Cols = copyCols(input)
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
		in.Pred = &scope.BinaryExpr{Op: "AND", Left: in.Pred, Right: f.Pred}
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
	// Every reference must map to a pure column reference in the project.
	mapping := make(map[string]string)
	for name := range scope.RefNames(f.Pred) {
		var mapped *scope.ColRef
		for _, p := range in.Projs {
			if p.Name == name {
				if cr, ok := p.E.(*scope.ColRef); ok {
					mapped = cr
				}
				break
			}
		}
		if mapped == nil {
			return false
		}
		mapping[name] = mapped.Name
	}
	r, ok := rw.pick(rules.KindPushFilterBelowProject, gate(f))
	if !ok {
		return false
	}
	nf := rw.newFilter(scope.RenameRefs(f.Pred, mapping), in.Inputs[0])
	in.Inputs[0] = nf
	rw.replaceEverywhere(f, in)
	rw.fire(r)
	return true
}

// joinSides classifies the merged output columns of a join node.
func joinSides(j *scope.Node) (left map[string]bool, rightMergedToOrig map[string]string) {
	left = make(map[string]bool)
	for _, c := range j.Inputs[0].Cols {
		left[c.Name] = true
	}
	rightMergedToOrig = make(map[string]string)
	rightOrig := make(map[string]bool)
	for _, c := range j.Inputs[1].Cols {
		rightOrig[c.Name] = true
	}
	for _, c := range j.Cols {
		if left[c.Name] {
			continue
		}
		orig := c.Name
		if j.RightRenames != nil {
			if o, ok := j.RightRenames[c.Name]; ok {
				orig = o
			}
		}
		if rightOrig[orig] {
			rightMergedToOrig[c.Name] = orig
		}
	}
	return left, rightMergedToOrig
}

func subsetOf(refs map[string]bool, set map[string]bool) bool {
	for r := range refs {
		if !set[r] {
			return false
		}
	}
	return true
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
	left, rightMap := joinSides(j)
	rightSet := make(map[string]bool, len(rightMap))
	for m := range rightMap {
		rightSet[m] = true
	}
	var pushLeft, pushRight, remain []scope.Expr
	for _, c := range scope.Conjuncts(f.Pred) {
		refs := scope.RefNames(c)
		switch {
		case len(refs) > 0 && subsetOf(refs, left):
			pushLeft = append(pushLeft, c)
		case len(refs) > 0 && subsetOf(refs, rightSet):
			pushRight = append(pushRight, scope.RenameRefs(c, rightMap))
		default:
			remain = append(remain, c)
		}
	}
	if len(pushLeft) == 0 && len(pushRight) == 0 {
		return false
	}
	if len(pushLeft) > 0 {
		j.Inputs[0] = rw.newFilter(scope.AndAll(pushLeft), j.Inputs[0])
	}
	if len(pushRight) > 0 {
		j.Inputs[1] = rw.newFilter(scope.AndAll(pushRight), j.Inputs[1])
	}
	if len(remain) == 0 {
		rw.replaceEverywhere(f, j)
	} else {
		f.Pred = scope.AndAll(remain)
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
		mapping := make(map[string]string)
		for pos, c := range u.Cols {
			if pos < len(in.Cols) {
				mapping[c.Name] = in.Cols[pos].Name
			}
		}
		u.Inputs[i] = rw.newFilter(scope.RenameRefs(f.Pred, mapping), in)
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
	gb := make(map[string]bool)
	for _, c := range a.GroupBy {
		gb[c.Name] = true
	}
	if !subsetOf(scope.RefNames(f.Pred), gb) {
		return false
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
	if rw.noMerge[f] {
		return false
	}
	conjs := scope.Conjuncts(f.Pred)
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
	top := rw.newFilter(scope.AndAll(conjs[:len(conjs)-1]), bottom)
	rw.noMerge[bottom] = true
	rw.noMerge[top] = true
	rw.replaceEverywhere(f, top)
	rw.fire(r)
	return true
}

func (rw *rewriter) tryMergeFilters(f *scope.Node) bool {
	in := f.Inputs[0]
	if in.Kind != scope.OpFilter || !rw.singleParent(in) || rw.noMerge[f] || rw.noMerge[in] {
		return false
	}
	r, ok := rw.pick(rules.KindMergeFilters, gate(f))
	if !ok {
		return false
	}
	f.Pred = &scope.BinaryExpr{Op: "AND", Left: in.Pred, Right: f.Pred}
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
	projMap := make(map[string]scope.Expr)
	for _, pe := range p.Projs {
		projMap[pe.Name] = pe.E
	}
	for name := range scope.RefNames(f.Pred) {
		e, ok := projMap[name]
		if !ok {
			return false
		}
		if _, isRef := e.(*scope.ColRef); !isRef {
			computed = true
		}
	}
	if !computed {
		return false
	}
	r, ok := rw.pick(rules.KindProjectPullUp, gate(f))
	if !ok {
		return false
	}
	nf := rw.newFilter(scope.SubstituteRefs(f.Pred, projMap), p.Inputs[0])
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
	inner := make(map[string]scope.Expr)
	for _, pe := range in.Projs {
		inner[pe.Name] = pe.E
	}
	for i := range p.Projs {
		p.Projs[i].E = scope.SubstituteRefs(p.Projs[i].E, inner)
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
		nd.Cols = copyCols(in)
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
	a.GroupBy = copyCols(d)
	a.Cols = copyCols(d)
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
	partial := rw.g.NewNode(scope.OpAgg, in)
	partial.Partial = true
	partial.GroupBy = append([]scope.Column(nil), a.GroupBy...)
	partial.Cols = copyCols(in)
	a.Inputs[0] = partial
	rw.fire(r)
	return true
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
	left, _ := joinSides(j)
	needed := make(map[string]bool)
	for _, g := range a.GroupBy {
		needed[g.Name] = true
	}
	for _, spec := range a.Aggs {
		if spec.Arg != nil {
			for n := range scope.RefNames(spec.Arg) {
				needed[n] = true
			}
		}
	}
	if !subsetOf(needed, left) {
		return false
	}
	r, ok := rw.pick(rules.KindPartialAggBelowJoin, gate(a))
	if !ok {
		return false
	}
	// Key the partial agg by the aggregation keys plus the left-side join
	// keys so the join result is preserved.
	keys := make(map[string]bool)
	for n := range needed {
		keys[n] = true
	}
	for n := range scope.RefNames(j.JoinCond) {
		if left[n] {
			keys[n] = true
		}
	}
	partial := rw.g.NewNode(scope.OpAgg, j.Inputs[0])
	partial.Partial = true
	for _, c := range j.Inputs[0].Cols {
		if keys[c.Name] {
			partial.GroupBy = append(partial.GroupBy, c)
		}
	}
	partial.Cols = copyCols(j.Inputs[0])
	j.Inputs[0] = partial
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
	aNames := make(map[string]bool, len(a.Cols))
	for _, col := range a.Cols {
		aNames[col.Name] = true
	}
	// The outer condition must be evaluable on B ⋈ C alone.
	for name := range scope.RefNames(j.JoinCond) {
		if aNames[name] {
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
	inner2.Cols = append(copyCols(bNode), c.Cols...)
	if rw.est.rows(inner2) >= rw.est.rows(inner) {
		return false // abandoned candidate node is unreachable garbage
	}
	j.Inputs[0] = a
	j.Inputs[1] = inner2
	j.JoinCond = inner.JoinCond
	j.Cols = append(copyCols(a), inner2.Cols...)
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
	for _, c := range scope.Conjuncts(lf.Pred) {
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
	inferred := &scope.BinaryExpr{Op: "==", Left: &scope.ColRef{Name: rightKey}, Right: lit}
	// Don't re-infer a filter that is already there.
	if rf := j.Inputs[1]; rf.Kind == scope.OpFilter {
		for _, c := range scope.Conjuncts(rf.Pred) {
			if c.String() == inferred.String() {
				return false
			}
		}
	}
	r, ok := rw.pick(rules.KindJoinPredicateInference, gate(j))
	if !ok {
		return false
	}
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
func equiKeys(j *scope.Node) (leftKey, rightKey string) {
	left, rightMap := joinSides(j)
	for _, c := range scope.Conjuncts(j.JoinCond) {
		be, ok := c.(*scope.BinaryExpr)
		if !ok || be.Op != "==" {
			continue
		}
		a, aok := be.Left.(*scope.ColRef)
		b, bok := be.Right.(*scope.ColRef)
		if !aok || !bok {
			continue
		}
		if left[a.Name] {
			if orig, ok := rightMap[b.Name]; ok {
				return a.Name, orig
			}
			// Unrenamed right column.
			for _, rc := range j.Inputs[1].Cols {
				if rc.Name == b.Name {
					return a.Name, b.Name
				}
			}
		}
		if left[b.Name] {
			if orig, ok := rightMap[a.Name]; ok {
				return b.Name, orig
			}
			for _, rc := range j.Inputs[1].Cols {
				if rc.Name == a.Name {
					return b.Name, a.Name
				}
			}
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
	ps := rw.parents[s]
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
		// Map sort keys by position into the input's naming.
		mapping := make(map[string]string)
		for pos, c := range u.Cols {
			if pos < len(in.Cols) {
				mapping[c.Name] = in.Cols[pos].Name
			}
		}
		for _, k := range t.SortKeys {
			nt.SortKeys = append(nt.SortKeys, scope.SortKey{
				Col:  &scope.ColRef{Name: mappedName(mapping, k.Col.Name)},
				Desc: k.Desc,
			})
		}
		nt.Cols = copyCols(in)
		u.Inputs[i] = nt
	}
	rw.fire(r)
	return true
}

func mappedName(mapping map[string]string, name string) string {
	if to, ok := mapping[name]; ok {
		return to
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

// neededColumns computes, for every node, the set of its output columns
// required by its consumers (all columns for roots).
func (rw *rewriter) neededColumns() map[*scope.Node]map[string]bool {
	nodes := rw.nodes
	needed := make(map[*scope.Node]map[string]bool, len(nodes))
	addAll := func(n *scope.Node) {
		m := needed[n]
		if m == nil {
			m = make(map[string]bool)
			needed[n] = m
		}
		for _, c := range n.Cols {
			m[c.Name] = true
		}
	}
	add := func(n *scope.Node, name string) {
		m := needed[n]
		if m == nil {
			m = make(map[string]bool)
			needed[n] = m
		}
		m[name] = true
	}
	for _, r := range rw.g.Roots {
		addAll(r)
	}
	// Reverse topological order: consumers before producers.
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		out := needed[n]
		if out == nil {
			out = make(map[string]bool)
			needed[n] = out
		}
		switch n.Kind {
		case scope.OpFilter:
			in := n.Inputs[0]
			for name := range out {
				add(in, name)
			}
			for name := range scope.RefNames(n.Pred) {
				add(in, name)
			}
		case scope.OpProject:
			in := n.Inputs[0]
			for _, p := range n.Projs {
				if out[p.Name] {
					for name := range scope.RefNames(p.E) {
						add(in, name)
					}
				}
			}
		case scope.OpJoin:
			left, rightMap := joinSides(n)
			l, rr := n.Inputs[0], n.Inputs[1]
			propagate := func(name string) {
				if left[name] {
					add(l, name)
				} else if orig, ok := rightMap[name]; ok {
					add(rr, orig)
				} else {
					// Unrenamed right column.
					add(rr, name)
				}
			}
			for name := range out {
				propagate(name)
			}
			for name := range scope.RefNames(n.JoinCond) {
				propagate(name)
			}
		case scope.OpAgg:
			in := n.Inputs[0]
			if n.Partial {
				for name := range out {
					add(in, name)
				}
			}
			for _, g := range n.GroupBy {
				add(in, g.Name)
			}
			for _, a := range n.Aggs {
				if a.Arg != nil {
					for name := range scope.RefNames(a.Arg) {
						add(in, name)
					}
				}
			}
		case scope.OpDistinct:
			addAll(n.Inputs[0])
		case scope.OpUnion:
			for _, in := range n.Inputs {
				for pos, c := range n.Cols {
					if out[c.Name] && pos < len(in.Cols) {
						add(in, in.Cols[pos].Name)
					}
				}
			}
		case scope.OpSort, scope.OpTop:
			in := n.Inputs[0]
			for name := range out {
				add(in, name)
			}
			for _, k := range n.SortKeys {
				add(in, k.Col.Name)
			}
		case scope.OpReduce, scope.OpProcess, scope.OpOutput:
			if len(n.Inputs) > 0 {
				addAll(n.Inputs[0])
			}
		}
	}
	return needed
}

// tryPruneColumns narrows scan schemas to the columns actually required
// upstream, the classic column-pruning optimization. Each scan is gated by
// its own PruneColumns sibling rule.
func (rw *rewriter) tryPruneColumns() {
	needed := rw.neededColumns()
	for _, n := range rw.nodes {
		if n.Kind != scope.OpScan {
			continue
		}
		req := needed[n]
		if n.Pred != nil {
			for name := range scope.RefNames(n.Pred) {
				req[name] = true
			}
		}
		var kept []scope.Column
		for _, c := range n.Cols {
			if req[c.Name] {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			kept = n.Cols[:1]
		}
		if len(kept) == len(n.Cols) {
			continue
		}
		r, ok := rw.pick(rules.KindPruneColumns, gate(n))
		if !ok {
			continue
		}
		n.Cols = kept
		rw.fire(r)
	}
}

// trySemiJoinReduction converts inner joins whose right side contributes
// no output columns into semi joins.
func (rw *rewriter) trySemiJoinReduction() {
	needed := rw.neededColumns()
	for _, n := range rw.nodes {
		if n.Kind != scope.OpJoin || n.JoinType != scope.JoinInner {
			continue
		}
		if !HasEquiCond(n.JoinCond) {
			continue
		}
		left, _ := joinSides(n)
		usesRight := false
		for name := range needed[n] {
			if !left[name] { // any needed column not from the left comes from the right
				usesRight = true
				break
			}
		}
		if usesRight {
			continue
		}
		r, ok := rw.pick(rules.KindSemiJoinReduction, gate(n))
		if !ok {
			continue
		}
		n.JoinType = scope.JoinSemi
		n.Cols = copyCols(n.Inputs[0])
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
			n.Cols = copyCols(n.Inputs[0])
		case scope.OpProject:
			// Keep projection outputs; they are independent of input width.
		case scope.OpJoin:
			if n.JoinType == scope.JoinSemi {
				n.Cols = copyCols(n.Inputs[0])
				continue
			}
			inverse := make(map[string]string) // orig -> merged
			for m, o := range n.RightRenames {
				inverse[o] = m
			}
			cols := copyCols(n.Inputs[0])
			for _, c := range n.Inputs[1].Cols {
				mc := c
				if m, ok := inverse[c.Name]; ok {
					mc.Name = m
				}
				cols = append(cols, mc)
			}
			n.Cols = cols
		case scope.OpAgg:
			if n.Partial {
				n.Cols = copyCols(n.Inputs[0])
				continue
			}
			cols := append([]scope.Column(nil), n.GroupBy...)
			for _, a := range n.Aggs {
				// Preserve the previously computed agg output types.
				if c, ok := n.FindCol(a.Name); ok {
					cols = append(cols, c)
				} else {
					cols = append(cols, scope.Column{Name: a.Name, Type: scope.TypeDouble})
				}
			}
			n.Cols = cols
		case scope.OpUnion:
			if len(n.Inputs) > 0 {
				// Keep names, bound widths by the first input.
				first := n.Inputs[0]
				if len(first.Cols) == len(n.Cols) {
					for i := range n.Cols {
						n.Cols[i].Type = first.Cols[i].Type
					}
				}
			}
		}
	}
	// The row-count heuristics depend on NDVs of sources, untouched here.
	_ = math.Abs
}

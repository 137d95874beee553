package scope

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// OpKind enumerates logical operator kinds in the plan DAG.
type OpKind int

const (
	OpScan OpKind = iota // EXTRACT from an input file
	OpFilter
	OpProject
	OpJoin
	OpAgg // group-by aggregation; Partial marks optimizer-introduced local aggs
	OpDistinct
	OpUnion
	OpSort
	OpTop
	OpReduce  // user-defined reducer (partitioned by On columns)
	OpProcess // user-defined row processor
	OpOutput  // DAG root: write to a file
)

var opKindNames = [...]string{
	"Scan", "Filter", "Project", "Join", "Agg", "Distinct", "Union",
	"Sort", "Top", "Reduce", "Process", "Output",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Column describes one output column of a plan node.
type Column struct {
	Name string
	Type ColType
	// Source identifies the base-table column this column carries, as
	// "path:column", or "" for computed columns. The cost model uses it
	// to look up distinct-value counts.
	Source string
}

// NamedExpr is a projection item: a computed expression with its output name.
type NamedExpr struct {
	Name string
	E    Expr
}

// AggSpec is one aggregate computation in an Agg node.
type AggSpec struct {
	Func string // SUM, COUNT, AVG, MIN, MAX
	Arg  Expr   // nil when Star
	Star bool
	Name string // output column name
}

// String renders the aggregate in canonical form.
func (a AggSpec) String() string {
	var buf [64]byte
	return string(a.appendTo(buf[:0]))
}

func (a AggSpec) appendTo(dst []byte) []byte {
	dst = append(dst, a.Func...)
	if a.Star {
		return append(dst, "(*)"...)
	}
	dst = append(dst, '(')
	dst = appendExpr(dst, a.Arg, false)
	return append(dst, ')')
}

// Node is a logical plan operator. Nodes form a DAG: a node may be an
// input to multiple consumers (SCOPE scripts reuse rowsets), and the
// graph has one root per OUTPUT statement.
type Node struct {
	ID     int
	Kind   OpKind
	Inputs []*Node
	Cols   []Column

	// Operator payloads; which fields are meaningful depends on Kind.
	TablePath string   // Scan
	BaseWidth int64    // Scan: full row width before column pruning
	Pred      Expr     // Filter
	JoinType  JoinType // Join
	JoinCond  Expr     // Join
	Projs     []NamedExpr
	GroupBy   []Column  // Agg, Reduce partition columns
	Aggs      []AggSpec // Agg
	Partial   bool      // Agg: optimizer-introduced local (partial) aggregation
	SortKeys  []SortKey // Sort, Top
	TopN      int64     // Top
	OutPath   string    // Output
	UserOp    string    // Reduce, Process

	// BroadcastRight is a logical annotation set by the broadcast
	// annotation rule: broadcast the join's build side instead of
	// repartitioning both inputs. Implementation rules honour it when
	// choosing the physical join.
	BroadcastRight bool

	// BuildLeft marks a join whose build side is the left input (set by
	// the join-commute rule when the left side is estimated smaller).
	// By default joins build on the right input.
	BuildLeft bool

	// RightRenames maps merged output column names back to the right
	// input's original column names for Join nodes whose right side was
	// renamed to avoid collisions (merged name -> original name).
	RightRenames map[string]string
}

// FindCol returns the column with the given name and whether it exists.
func (n *Node) FindCol(name string) (Column, bool) {
	for _, c := range n.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return Column{}, false
}

// Projection returns the expression project n computes for its output
// column name, and whether it has one: a lookup MapRefs can substitute
// through. The compiler refuses a duplicate output name, so the first
// match is the only one.
func (n *Node) Projection(name string) (Expr, bool) {
	for _, p := range n.Projs {
		if p.Name == name {
			return p.E, true
		}
	}
	return nil, false
}

// Label renders a one-line description of the operator for plan dumps.
func (n *Node) Label() string {
	switch n.Kind {
	case OpScan:
		return fmt.Sprintf("Scan(%s)", n.TablePath)
	case OpFilter:
		return fmt.Sprintf("Filter(%s)", n.Pred)
	case OpProject:
		parts := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			parts[i] = p.Name
		}
		return fmt.Sprintf("Project(%s)", strings.Join(parts, ","))
	case OpJoin:
		return fmt.Sprintf("%sJoin(%s)", n.JoinType, n.JoinCond)
	case OpAgg:
		kind := "Agg"
		if n.Partial {
			kind = "PartialAgg"
		}
		keys := make([]string, len(n.GroupBy))
		for i, c := range n.GroupBy {
			keys[i] = c.Name
		}
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			aggs[i] = a.String()
		}
		return fmt.Sprintf("%s(by=%s aggs=%s)", kind, strings.Join(keys, ","), strings.Join(aggs, ","))
	case OpDistinct:
		return "Distinct"
	case OpUnion:
		return fmt.Sprintf("Union(%d-way)", len(n.Inputs))
	case OpSort:
		return fmt.Sprintf("Sort(%s)", sortKeysString(n.SortKeys))
	case OpTop:
		return fmt.Sprintf("Top(%d, %s)", n.TopN, sortKeysString(n.SortKeys))
	case OpReduce:
		return fmt.Sprintf("Reduce(%s)", n.UserOp)
	case OpProcess:
		return fmt.Sprintf("Process(%s)", n.UserOp)
	case OpOutput:
		return fmt.Sprintf("Output(%s)", n.OutPath)
	default:
		return n.Kind.String()
	}
}

func sortKeysString(keys []SortKey) string {
	var buf [64]byte
	return string(appendSortKeys(buf[:0], keys))
}

func appendSortKeys(dst []byte, keys []SortKey) []byte {
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendExpr(dst, k.Col, false)
		if k.Desc {
			dst = append(dst, " desc"...)
		} else {
			dst = append(dst, " asc"...)
		}
	}
	return dst
}

// Graph is a logical plan DAG with one root per OUTPUT statement.
//
// A Graph handed out by CompileScript or Bind is immutable, and so is
// everything it reaches: it shares slices and expressions with the
// Prepared it was bound from, with the other bindings of it, and with
// every Clone taken of it, across job instances and goroutines. The
// optimizer rewrites a working copy (Scratch.Clone), which owns only its
// nodes, their Inputs and their Projs; whatever else a rewrite changes it
// replaces.
type Graph struct {
	Roots  []*Node
	nextID int

	// scratch is set on a working copy made by Scratch.Clone: NewNode
	// makes its nodes there too.
	scratch *Scratch

	// tmplOnce/tmplHash memoize TemplateHash: the hash walks the whole
	// DAG, which is too expensive to redo on every compilation of a
	// shared graph. Callers must not invoke TemplateHash
	// until the graph has reached its final shape (the optimizer only
	// hashes input graphs and fully rewritten clones).
	tmplOnce sync.Once
	tmplHash uint64
}

// NewNode makes a node with a fresh ID attached to this graph, with a
// copy of inputs as its Inputs. A working copy made by Scratch.Clone
// makes it, and its Inputs, in its scratch; any other graph on the heap.
func (g *Graph) NewNode(kind OpKind, inputs ...*Node) *Node {
	var n *Node
	if s := g.scratch; s != nil {
		n = &s.takeNodes(1)[0]
		if len(inputs) > 0 {
			n.Inputs = carve(&s.ptrs, len(inputs))
			copy(n.Inputs, inputs)
		}
	} else {
		n = &Node{Inputs: slices.Clone(inputs)}
	}
	n.ID, n.Kind = g.nextID, kind
	g.nextID++
	return n
}

// IDBound returns an exclusive upper bound on the IDs of the graph's
// nodes: every node of g, reachable or not, has 0 <= ID < IDBound(). IDs
// are dense, so state that lives for one pass over the graph can sit in a
// slice indexed by Node.ID instead of a map keyed by node pointer.
func (g *Graph) IDBound() int { return g.nextID }

// Nodes returns all nodes reachable from the roots in a deterministic
// topological order (inputs before consumers).
func (g *Graph) Nodes() []*Node {
	return g.AppendNodes(make([]*Node, 0, g.nextID), make([]bool, g.nextID))
}

// AppendNodes appends to dst, in Nodes order, the reachable nodes whose
// seen entry (indexed by ID, at least IDBound() long) is false, marking
// them. It is Nodes for a caller that brings its own scratch.
func (g *Graph) AppendNodes(dst []*Node, seen []bool) []*Node {
	for _, r := range g.Roots {
		dst = appendSubtree(dst, seen, r)
	}
	return dst
}

func appendSubtree(dst []*Node, seen []bool, n *Node) []*Node {
	if seen[n.ID] {
		return dst
	}
	seen[n.ID] = true
	for _, in := range n.Inputs {
		dst = appendSubtree(dst, seen, in)
	}
	return append(dst, n)
}

// Clone copies the reachable DAG, preserving node sharing, onto the heap.
// The clone's node IDs match the originals so that site keys remain
// comparable.
//
// The copy is copy-on-write below the node: each node, its Inputs and its
// Projs — the one payload a rewrite writes in place — are the clone's own;
// Cols, GroupBy, Aggs, SortKeys, RightRenames and every expression are
// shared with g and read-only. A rewrite replaces such a slice, never
// writes through it.
//
// The copy lives in three slabs sized exactly: the reachable nodes in one
// []Node, every Inputs and the Roots in one []*Node, every Projs in one
// []NamedExpr. Each node's slices are capped subslices of those, so
// appending to one reallocates it rather than writing over a neighbour's.
// Nodes g made but no longer reaches are not copied, so a Clone of a
// working copy holds none of the rewrite's garbage: it, or Store.Clone's
// copy into storage that dies with its batch, is what outlives a rewrite.
func (g *Graph) Clone() *Graph { return g.cloneInto(onHeap{}) }

// cloneRoom is where cloneInto puts a copy: the heap, a Scratch or a
// Store. room returns an empty graph header for the copy and room for its
// nodes, for every Inputs and the Roots, and for every Projs, each exactly
// as long as asked.
type cloneRoom interface {
	room(nodes, ptrs, projs int) (*Graph, []Node, []*Node, []NamedExpr)
}

// onHeap is Clone's room: four allocations sized exactly.
type onHeap struct{}

func (onHeap) room(nodes, ptrs, projs int) (*Graph, []Node, []*Node, []NamedExpr) {
	return new(Graph), make([]Node, nodes), make([]*Node, ptrs), make([]NamedExpr, projs)
}

// cloneInto is the one copy loop of Clone, Scratch.Clone and Store.Clone:
// it counts what g reaches, takes that room from dst and copies g there.
func (g *Graph) cloneInto(dst cloneRoom) *Graph {
	// Graphs of up to cloneStack IDs walk and map on the stack.
	const cloneStack = 128
	var seenBuf [cloneStack]bool
	var orderBuf, mappingBuf [cloneStack]*Node
	seen, mapping := seenBuf[:], mappingBuf[:] // mapping: by ID, original -> copy
	if g.nextID > cloneStack {
		seen, mapping = make([]bool, g.nextID), make([]*Node, g.nextID)
	}
	order := g.AppendNodes(orderBuf[:0], seen) // inputs first, so they are mapped

	nptrs, nprojs := len(g.Roots), 0
	for _, n := range order {
		nptrs += len(n.Inputs)
		nprojs += len(n.Projs)
	}
	clone, nodes, ptrs, projs := dst.room(len(order), nptrs, nprojs)
	clone.nextID = g.nextID
	for i, n := range order {
		c := &nodes[i]
		*c = *n
		c.Inputs, ptrs = ptrs[:len(n.Inputs):len(n.Inputs)], ptrs[len(n.Inputs):]
		for j, in := range n.Inputs {
			c.Inputs[j] = mapping[in.ID]
		}
		if n.Projs != nil {
			c.Projs, projs = projs[:len(n.Projs):len(n.Projs)], projs[len(n.Projs):]
			copy(c.Projs, n.Projs)
		}
		mapping[n.ID] = c
	}
	clone.Roots = ptrs
	for i, r := range g.Roots {
		clone.Roots[i] = mapping[r.ID]
	}
	return clone
}

// Scratch is reusable storage for the working copy a rewrite writes in
// place: Clone copies a graph into it, and the copy's NewNode makes its
// nodes and their Inputs there too, so neither costs an allocation once
// the storage has grown to the largest graph it held. What the rewrite
// keeps is a copy of the working copy — a Graph.Clone on the heap or a
// Store.Clone — which shares none of the scratch. The working copy is
// valid until the next Clone or Reset. A Scratch is not safe for
// concurrent use; its zero value is empty.
type Scratch struct {
	g Graph // the working copy

	// Nodes lie in chunks, which keep their nodes' addresses while more
	// are made: chunks[:cur] are spent, chunks[cur][:off] in use. Every
	// Inputs and the Roots lie back to back in ptrs, every Projs in projs,
	// each a capped subslice.
	chunks   [][]Node
	cur, off int
	ptrs     []*Node
	projs    []NamedExpr
}

// scratchChunk is how many nodes a Scratch allocates at once, unless one
// Clone needs more.
const scratchChunk = 64

// Clone copies g's reachable DAG into s, as Graph.Clone does onto the
// heap, and returns the copy. It discards what s held.
func (s *Scratch) Clone(g *Graph) *Graph {
	s.Reset()
	return g.cloneInto(s)
}

// room is the working copy's header, which makes its nodes in s, and
// room in s's storage.
func (s *Scratch) room(nodes, ptrs, projs int) (*Graph, []Node, []*Node, []NamedExpr) {
	s.g = Graph{scratch: s}
	return &s.g, s.takeNodes(nodes), carve(&s.ptrs, ptrs), carve(&s.projs, projs)
}

// Reset clears what s holds, so that a pooled Scratch points into no
// graph, and keeps its storage.
func (s *Scratch) Reset() {
	for i := 0; i < s.cur; i++ {
		clear(s.chunks[i])
	}
	if s.cur < len(s.chunks) {
		clear(s.chunks[s.cur][:s.off])
	}
	s.cur, s.off = 0, 0
	clear(s.ptrs)
	clear(s.projs)
	s.ptrs, s.projs = s.ptrs[:0], s.projs[:0]
	s.g = Graph{}
}

// takeNodes returns k unused nodes, contiguous and capped.
func (s *Scratch) takeNodes(k int) []Node {
	for s.cur < len(s.chunks) && len(s.chunks[s.cur])-s.off < k {
		s.cur, s.off = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]Node, max(k, scratchChunk)))
	}
	s.off += k
	return s.chunks[s.cur][s.off-k : s.off : s.off]
}

// carve extends *buf by k elements and returns them, capped. When *buf
// has no room it moves to a larger array; what was carved before stays
// where it is.
func carve[T any](buf *[]T, k int) []T {
	b := slices.Grow(*buf, k)
	b = b[:len(b)+k]
	*buf = b
	return b[len(b)-k : len(b) : len(b)]
}

// String renders the DAG as an indented tree per root, with shared nodes
// marked by reference after their first occurrence.
func (g *Graph) String() string {
	var sb strings.Builder
	printed := make(map[*Node]bool)
	var dump func(n *Node, depth int)
	dump = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if printed[n] {
			fmt.Fprintf(&sb, "#%d (shared %s)\n", n.ID, n.Kind)
			return
		}
		printed[n] = true
		fmt.Fprintf(&sb, "#%d %s\n", n.ID, n.Label())
		for _, in := range n.Inputs {
			dump(in, depth+1)
		}
	}
	for i, r := range g.Roots {
		fmt.Fprintf(&sb, "root %d:\n", i)
		dump(r, 1)
	}
	return sb.String()
}

// FNVOffset64 is the initial state of FNV-1a, 64-bit.
const FNVOffset64 uint64 = 14695981039346656037

const fnvPrime64 = 1099511628211

// FNV1a folds s into the FNV-1a (64-bit) state h and returns the new
// state: FNV1a(FNVOffset64, s) is hash/fnv's New64a over s, without the
// hasher on the heap, and hashing a concatenation is chaining the calls.
// It is the one copy of the hash behind plan-site identity, rule gating,
// and the workload's and the simulator's derived seeds.
func FNV1a[T ~string | ~[]byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnv64a is an FNV-1a state with chaining methods, so that a fingerprint
// walk reads as the byte stream it hashes.
type fnv64a uint64

func (h fnv64a) byte(c byte) fnv64a { return (h ^ fnv64a(c)) * fnvPrime64 }

func (h fnv64a) str(s string) fnv64a { return fnv64a(FNV1a(uint64(h), s)) }

func (h fnv64a) bytes(b []byte) fnv64a { return fnv64a(FNV1a(uint64(h), b)) }

// Fingerprint returns a stable hash of the node's operator identity
// (kind, payload, input fingerprints). Tuning rules use fingerprints to
// decide which plan fragments they apply to.
//
// The value is a compatibility surface: fingerprint % len(siblings)
// decides which catalog rule governs a site, and so which flips a job's
// span, the bandit and the SIS hint file see. It is FNV-1a (64-bit) over
// this byte stream, written depth-first from n:
//
//	node   = "^"                              a node already written in this walk
//	       | Kind "|" payload "(" node* ")"   Kind by name; inputs in order
//	payload, by Kind:
//	  Scan             TablePath
//	  Filter           Pred, normalized
//	  Join             JoinType ":" JoinCond, normalized
//	  Agg              (GroupBy name ",")* (aggregate ",")*   aggregates as AggSpec.String
//	  Project          (projection name ",")*
//	  Sort, Top        (key " asc"|" desc"), comma-separated, then ":" TopN in decimal
//	  Output           OutPath
//	  Reduce, Process  UserOp
//	  Distinct, Union  empty
//
// It allocates nothing for subtrees of up to 32 nodes whose rendered
// expressions fit 256 bytes.
func (n *Node) Fingerprint() uint64 {
	var seen [32]*Node
	var buf [256]byte
	f := fingerprinter{h: fnv64a(FNVOffset64), seen: seen[:0], buf: buf[:0]}
	return uint64(f.node(n).h)
}

// fingerprinter is the state of one hash walk. It is passed and returned
// by value — never through a pointer — so that escape analysis can keep
// the caller's seen and buf arrays on the stack. seen is a list, not a
// set: the subtrees the optimizer fingerprints are a dozen nodes, where a
// scan beats a map and, unlike one, costs no allocation.
type fingerprinter struct {
	h    fnv64a
	seen []*Node
	buf  []byte // scratch for rendered expressions
}

func (f fingerprinter) node(x *Node) fingerprinter {
	for _, s := range f.seen {
		if s == x {
			f.h = f.h.byte('^')
			return f
		}
	}
	f.seen = append(f.seen, x)
	f.h = f.h.str(x.Kind.String()).byte('|')
	switch x.Kind {
	case OpScan:
		f.h = f.h.str(x.TablePath)
	case OpFilter:
		f = f.expr(x.Pred)
	case OpJoin:
		f.h = f.h.str(x.JoinType.String()).byte(':')
		f = f.expr(x.JoinCond)
	case OpAgg:
		for _, c := range x.GroupBy {
			f.h = f.h.str(c.Name).byte(',')
		}
		for _, a := range x.Aggs {
			f.buf = a.appendTo(f.buf[:0])
			f.h = f.h.bytes(f.buf).byte(',')
		}
	case OpProject:
		for _, p := range x.Projs {
			f.h = f.h.str(p.Name).byte(',')
		}
	case OpSort, OpTop:
		f.buf = appendSortKeys(f.buf[:0], x.SortKeys)
		f.buf = append(f.buf, ':')
		f.buf = strconv.AppendInt(f.buf, x.TopN, 10)
		f.h = f.h.bytes(f.buf)
	case OpOutput:
		f.h = f.h.str(x.OutPath)
	case OpReduce, OpProcess:
		f.h = f.h.str(x.UserOp)
	}
	f.h = f.h.byte('(')
	for _, in := range x.Inputs {
		f = f.node(in)
	}
	f.h = f.h.byte(')')
	return f
}

// expr hashes e's normalized form.
func (f fingerprinter) expr(e Expr) fingerprinter {
	f.buf = appendExpr(f.buf[:0], e, true)
	f.h = f.h.bytes(f.buf)
	return f
}

// RowWidth returns the synthetic row width in bytes of the node's schema.
func (n *Node) RowWidth() int64 {
	var w int64
	for _, c := range n.Cols {
		w += c.Type.Width()
	}
	if w == 0 {
		w = 8
	}
	return w
}

// TemplateHash returns a stable hash of the graph's normalized structure:
// operators and normalized expressions, with literals wildcarded. Two
// instances of the same recurring job template share a TemplateHash even
// when their filter constants and input paths' date components differ.
// The hash is computed once and memoized (safe for concurrent callers);
// it must not be called before the graph has reached its final shape.
func (g *Graph) TemplateHash() uint64 {
	g.tmplOnce.Do(func() { g.tmplHash = g.computeTemplateHash() })
	return g.tmplHash
}

func (g *Graph) computeTemplateHash() uint64 {
	var buf [256]byte
	f := fingerprinter{h: fnv64a(FNVOffset64), buf: buf[:0]}
	w := walkPool.Get().(*walk)
	if cap(w.seen) < g.nextID {
		w.seen = make([]bool, g.nextID)
	}
	w.nodes = g.AppendNodes(w.nodes[:0], w.seen[:g.nextID])
	for _, n := range w.nodes {
		f.h = f.h.str(n.Kind.String()).byte('|')
		switch n.Kind {
		case OpScan:
			f.h = f.h.normalizedPath(n.TablePath)
		case OpFilter:
			f = f.expr(n.Pred)
		case OpJoin:
			f.h = f.h.str(n.JoinType.String()).byte(':')
			f = f.expr(n.JoinCond)
		case OpAgg:
			for _, c := range n.GroupBy {
				f.h = f.h.str(c.Name).byte(',')
			}
		case OpOutput:
			f.h = f.h.normalizedPath(n.OutPath)
		case OpReduce, OpProcess:
			f.h = f.h.str(n.UserOp)
		}
		f.h = f.h.byte(';')
	}
	clear(w.nodes)
	clear(w.seen)
	walkPool.Put(w)
	return uint64(f.h)
}

// walk is the pooled scratch of a TemplateHash walk: the nodes in Nodes
// order and their visit marks by ID, all false between walks.
type walk struct {
	nodes []*Node
	seen  []bool
}

var walkPool = sync.Pool{New: func() any { return new(walk) }}

// normalizedPath hashes p with every digit run replaced by one '#', so
// that date-partitioned inputs ("clicks/2021/11/03.tsv") normalize to the
// same template.
func (h fnv64a) normalizedPath(p string) fnv64a {
	inDigits := false
	for i := 0; i < len(p); i++ {
		if p[i] >= '0' && p[i] <= '9' {
			if !inDigits {
				h = h.byte('#')
				inDigits = true
			}
			continue
		}
		inDigits = false
		h = h.byte(p[i])
	}
	return h
}

// AppendSiteKey appends to dst the stable identity of an operator "site"
// used to carry true selectivities from the workload generator to the
// execution simulator — nothing for a kind without a site. Sites are
// keyed by the operator's semantic payload, which survives plan rewrites
// (a pushed-down filter keeps its predicate).
func (n *Node) AppendSiteKey(dst []byte) []byte {
	switch n.Kind {
	case OpFilter:
		return appendExpr(append(dst, "filter:"...), n.Pred, false)
	case OpJoin:
		return appendExpr(append(dst, "join:"...), n.JoinCond, false)
	case OpAgg:
		var arr [8]string
		keys := arr[:0]
		for _, c := range n.GroupBy {
			keys = append(keys, c.Name)
		}
		slices.Sort(keys)
		return appendJoined(append(dst, "agg:"...), keys)
	case OpDistinct:
		dst = append(dst, "distinct:"...)
		for i, c := range n.Cols {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, c.Name...)
		}
		return dst
	case OpReduce:
		return append(append(dst, "reduce:"...), n.UserOp...)
	case OpProcess:
		return append(append(dst, "process:"...), n.UserOp...)
	case OpScan:
		return append(append(dst, "scan:"...), n.TablePath...)
	default:
		return dst
	}
}

func appendJoined(dst []byte, parts []string) []byte {
	for i, p := range parts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p...)
	}
	return dst
}

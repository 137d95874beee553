package scope

import "sync"

// Store is storage for graphs that outlive the rewrites that made them
// and die together: the rewrites a batch of job instances keeps, freed
// with the batch (region-based allocation, Tofte & Talpin). Clone copies
// a graph into it as Graph.Clone copies one onto the heap — the header,
// its nodes, every Inputs and the Roots, and every Projs — but cuts each
// as capped subslices from a chunk of its kind, so a batch's kept
// rewrites cost a few chunks rather than four allocations each. A copy
// shares its schemas and expressions with the graph it copies, so the
// column lists and predicate nodes a rewrite adds to its working copy
// come from the Store too: Columns and Binary cut them from chunks of
// their own kinds, AndAll and MapRefs build their spines there.
//
// A Store is safe for concurrent use: a Clone holds its mutex only while
// it cuts its room, and copies the graph after releasing it; Columns and
// Binary hold it for their one cut. A chunk is freed once nothing in it is
// reachable and the Store has moved past it, so a copy its holder drops,
// such as an evicted memo entry's, or a column list a later rewrite step
// replaced, stays until its chunk's neighbours go too: at most as long as
// the Store.
type Store struct {
	mu     sync.Mutex
	graphs chunks[Graph]
	nodes  chunks[Node]
	ptrs   chunks[*Node]
	projs  chunks[NamedExpr]
	cols   chunks[Column]
	binary chunks[BinaryExpr]
}

// chunks is a Store's room of one kind: the unused rest of its newest
// chunk, and the lengths of the next chunk and of the one after it. A cut
// the rest does not fit leaves the rest unused and takes a new chunk.
type chunks[T any] struct {
	rest        []T
	next, later int
}

// A Store's first chunk of a kind holds one copy of each binding it was
// sized for. A copy those did not count — a second rewrite of an instance,
// or a first that outgrew its binding — takes room from a later chunk,
// which starts at storeCopies copies of the average binding or
// 1/storeSpill of the first chunk, whichever is longer, and doubles: a
// store that keeps a few copies past its count takes one more chunk of
// each kind for them, and one that keeps many more takes a few.
const (
	storeCopies = 4
	storeSpill  = 32
)

// newChunks returns room of a kind whose first chunk is first long, for
// copies of bindings whose room of the kind sums to first.
func newChunks[T any](first, bindings int) chunks[T] {
	perCopy := (first + bindings - 1) / max(bindings, 1)
	return chunks[T]{next: first, later: max(first/storeSpill, storeCopies*perCopy, 1)}
}

// cut cuts k elements off the rest of c's newest chunk, first making a
// chunk of max(k, c.next) elements when the rest is shorter than k.
func (c *chunks[T]) cut(k int) []T {
	if len(c.rest) < k {
		c.rest = make([]T, max(k, c.next))
		c.next, c.later = c.later, 2*c.later
	}
	return cut(&c.rest, k)
}

// NewStore returns an empty Store sized from the room s counted for its
// next Make, so call it before Make: its first chunk of each kind, made
// when a Clone or a cut first needs it, holds one copy of each binding s
// counted, and its first chunks of column lists and predicate nodes what a
// batch's rewrites add per binding: half its scans' columns and one node
// per two scans. (On the ledger's ten-day leg, 222 templates, a batch's
// rewrites add 0.56 columns per scan column and 0.35 nodes per scan; a
// store that keeps more takes later chunks.)
func NewStore(s *Slabs) *Store {
	z := s.reserved
	return &Store{
		graphs: newChunks[Graph](z.graphs, z.graphs),
		nodes:  newChunks[Node](z.nodes, z.graphs),
		ptrs:   newChunks[*Node](z.ptrs, z.graphs),
		projs:  newChunks[NamedExpr](z.projs, z.graphs),
		cols:   newChunks[Column](z.scanCols/2, z.graphs),
		binary: newChunks[BinaryExpr](z.scans/2, z.graphs),
	}
}

// Clone copies g's reachable DAG into s, as Graph.Clone does onto the
// heap, and returns the copy, which lives as long as s. A nil Store
// clones onto the heap.
func (s *Store) Clone(g *Graph) *Graph {
	if s == nil {
		return g.Clone()
	}
	return g.cloneInto(s)
}

// room cuts a copy's header and room from s's chunks under its mutex.
func (s *Store) room(nodes, ptrs, projs int) (*Graph, []Node, []*Node, []NamedExpr) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &s.graphs.cut(1)[0], s.nodes.cut(nodes), s.ptrs.cut(ptrs), s.projs.cut(projs)
}

// Columns returns n zeroed columns, capped at n, that live as long as s:
// a column list a rewrite writes its schema into. A nil Store allocates
// them on the heap.
func (s *Store) Columns(n int) []Column {
	if s == nil {
		return make([]Column, n)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cols.cut(n)
}

// Binary returns a copy of e that lives as long as s: a predicate node a
// rewrite builds. A nil Store allocates it on the heap.
func (s *Store) Binary(e BinaryExpr) *BinaryExpr {
	var c *BinaryExpr
	if s == nil {
		c = new(BinaryExpr) // not &e, which would move e to the heap on every call
	} else {
		s.mu.Lock()
		c = &s.binary.cut(1)[0]
		s.mu.Unlock()
	}
	*c = e
	return c
}

package scope

import "sync"

// Store is storage for graphs that outlive the rewrites that made them
// and die together: the rewrites a batch of job instances keeps, freed
// with the batch (region-based allocation, Tofte & Talpin). Clone copies
// a graph into it as Graph.Clone copies one onto the heap — the header,
// its nodes, every Inputs and the Roots, and every Projs — but cuts each
// as capped subslices from a chunk of its kind, so a batch's kept
// rewrites cost a few chunks rather than four allocations each.
//
// A Store is safe for concurrent use: a Clone holds its mutex only while
// it cuts its room, and copies the graph after releasing it. A chunk is
// freed once no copy in it is reachable and the Store has moved past it,
// so a copy its holder drops, such as an evicted memo entry's, stays
// until its chunk's neighbours go too: at most as long as the Store.
type Store struct {
	mu     sync.Mutex
	graphs chunks[Graph]
	nodes  chunks[Node]
	ptrs   chunks[*Node]
	projs  chunks[NamedExpr]
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
// when a Clone first needs it, holds one copy of each binding s counted.
func NewStore(s *Slabs) *Store {
	z := s.reserved
	return &Store{
		graphs: newChunks[Graph](z.graphs, z.graphs),
		nodes:  newChunks[Node](z.nodes, z.graphs),
		ptrs:   newChunks[*Node](z.ptrs, z.graphs),
		projs:  newChunks[NamedExpr](z.projs, z.graphs),
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

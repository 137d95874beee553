package optimizer

import "qoadvisor/internal/scope"

// colSets holds one set of column names per node: row id of a bit matrix
// whose columns are the names in first-use order. It replaces a
// map[*scope.Node]map[string]bool built and dropped per analysis; the name
// table and the matrix are reused from one analysis to the next.
type colSets struct {
	index map[string]int // name -> bit
	names []string       // bit -> name
	words int            // row stride
	bits  []uint64       // rows * words
}

// reset empties the name table and sizes the matrix for rows empty sets.
func (s *colSets) reset(rows int) {
	if s.index == nil {
		s.index = make(map[string]int)
	}
	clear(s.index)
	s.names = s.names[:0]
	s.words = 1
	s.bits = zeroed(s.bits, rows)
}

// bit returns name's column, adding it to the table — and widening every
// row when the table outgrows the stride — on first use.
func (s *colSets) bit(name string) int {
	b, ok := s.index[name]
	if !ok {
		b = len(s.names)
		s.index[name] = b
		s.names = append(s.names, name)
		if b >= s.words*64 {
			rows, w := len(s.bits)/s.words, s.words*2
			wide := make([]uint64, rows*w)
			for r := 0; r < rows; r++ {
				copy(wide[r*w:], s.row(r))
			}
			s.bits, s.words = wide, w
		}
	}
	return b
}

// row is set id as words; adding a name may widen the matrix, so a row
// does not survive a call to add or bit.
func (s *colSets) row(id int) []uint64 { return s.bits[id*s.words : (id+1)*s.words] }

func (s *colSets) add(id int, name string) {
	b := s.bit(name)
	s.bits[id*s.words+b/64] |= 1 << (b % 64)
}

func (s *colSets) addAll(id int, cols []scope.Column) {
	for i := range cols {
		s.add(id, cols[i].Name)
	}
}

func (s *colSets) addRefs(id int, refs []*scope.ColRef) {
	for _, ref := range refs {
		s.add(id, ref.Name)
	}
}

func (s *colSets) has(id int, name string) bool {
	b, ok := s.index[name]
	return ok && s.holds(id, b)
}

// holds reports whether set id holds s.names[b].
func (s *colSets) holds(id, b int) bool { return s.bits[id*s.words+b/64]&(1<<(b%64)) != 0 }

// union adds every name of set src to set dst.
func (s *colSets) union(dst, src int) {
	d, r := s.row(dst), s.row(src)
	for i := range d {
		d[i] |= r[i]
	}
}

// Package strarena cuts many short strings out of a few long ones. The
// decoders of the batch bodies (internal/api), of hint files
// (internal/sis) and of journal records (internal/walrec) copy every
// string they decode into an Arena, so the strings of one body, file or
// record cost one allocation instead of one each, and a string a caller
// keeps pins the strings decoded beside it — never the input they were
// decoded from. The bandit's event log (internal/bandit) copies every
// event ID it logs into one Arena it Resets to a fixed-size block
// whenever the next ID does not fit, so a kept ID pins at most one
// block of its neighbours.
package strarena

import "strings"

// Arena hands out strings that are substrings of its blocks. A block is
// the buffer of a strings.Builder: String appends its bytes to it and
// returns them as a substring of the builder's String. That relies on a
// strings.Builder never rewriting a byte it has written, and on the
// Arena never letting a full builder grow (growing copies the buffer,
// and the strings already handed out would keep the old one alive beside
// the copy): a string that does not fit starts a new block, and every
// string handed out keeps its bytes, unchanged, for as long as it is
// referenced.
//
// The zero value is ready to use. An Arena must not be used from two
// goroutines at once.
type Arena struct {
	b    strings.Builder
	next int // capacity of the next block
	n    int // bytes written since the last Reset
}

// Reset makes the next String start a new block of size bytes, or of
// the string's length if that is more; a block that then fills up is
// followed by one twice its size. The strings handed out before keep
// their bytes, and the Arena stops referencing them.
func (a *Arena) Reset(size int) {
	a.b = strings.Builder{}
	a.next, a.n = size, 0
}

// Len returns the bytes written since the last Reset.
func (a *Arena) Len() int { return a.n }

// String returns a string equal to p, cut from the current block. It
// does not retain p. The empty string and one-byte strings take no room:
// the runtime already has a static copy of each.
func (a *Arena) String(p []byte) string {
	if len(p) <= 1 {
		return string(p)
	}
	if a.b.Cap()-a.b.Len() < len(p) {
		size := max(a.next, len(p))
		a.b = strings.Builder{}
		a.b.Grow(size)
		a.next = 2 * size
	}
	start := a.b.Len()
	a.b.Write(p)
	a.n += len(p)
	return a.b.String()[start:]
}

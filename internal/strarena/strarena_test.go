package strarena

import (
	"bytes"
	"testing"
	"unsafe"

	"qoadvisor/internal/budget"
)

// TestStringsShareBlocks: strings cut after one Reset sit back to back in
// one block while they fit, a string that does not fit starts a block
// twice the size, and nothing handed out changes when the input is
// overwritten or more strings are cut.
func TestStringsShareBlocks(t *testing.T) {
	var a Arena
	a.Reset(8)
	in := []byte("abcd")
	s1 := a.String(in)
	s2 := a.String(in[:3])
	copy(in, "zzzz")
	if s1 != "abcd" || s2 != "abc" {
		t.Fatalf("strings changed with their input: %q %q", s1, s2)
	}
	if unsafe.StringData(s2) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(s1)), 4)) {
		t.Error("two strings that fit one block are not back to back")
	}
	s3 := a.String([]byte("efghij")) // 7 + 6 > 8: a new block of 16
	if s3 != "efghij" || s1 != "abcd" || s2 != "abc" {
		t.Fatalf("after a new block: %q %q %q", s1, s2, s3)
	}
	s4 := a.String([]byte("klmnopqrst")) // 6 + 10 fits 16
	if unsafe.StringData(s4) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(s3)), 6)) {
		t.Error("the second block is not twice the first")
	}
	if a.Len() != 4+3+6+10 {
		t.Errorf("Len = %d, want %d", a.Len(), 4+3+6+10)
	}
	a.Reset(0)
	if a.Len() != 0 {
		t.Errorf("Len after Reset = %d", a.Len())
	}
	if s := a.String(bytes.Repeat([]byte("x"), 100)); len(s) != 100 || s4 != "klmnopqrst" {
		t.Errorf("a string longer than the block: %d bytes, earlier %q", len(s), s4)
	}
}

// TestShortStringsTakeNoRoom: "" and one-byte strings are the runtime's
// static copies, so they do not count (TestShortStringsAllocBudget: nor
// allocate).
func TestShortStringsTakeNoRoom(t *testing.T) {
	var a Arena
	a.Reset(0)
	if a.String(nil) != "" || a.String([]byte("q")) != "q" {
		t.Fatal("wrong short string")
	}
	if a.Len() != 0 {
		t.Errorf("Len = %d after short strings only", a.Len())
	}
}

// TestNilArenaCopies: a nil Arena returns each string as a copy of its
// own, which does not change with its input.
func TestNilArenaCopies(t *testing.T) {
	var a *Arena
	in := []byte("abcd")
	s := a.String(in)
	copy(in, "zzzz")
	if s != "abcd" || a.String(nil) != "" || a.String(in[:1]) != "z" {
		t.Fatalf("a nil Arena's strings: %q %q %q", s, a.String(nil), a.String(in[:1]))
	}
}

// TestShortStringsAllocBudget: "" and one-byte strings allocate nothing.
func TestShortStringsAllocBudget(t *testing.T) {
	var a Arena
	a.Reset(0)
	one := []byte("q")
	budget.Allocs(t, "strarena.short_strings", 100, func() {
		if a.String(nil) != "" || a.String(one) != "q" {
			t.Fatal("wrong short string")
		}
	})
}

// TestOneAllocationPerBlock: strings that fit the block Reset asked for
// cost one allocation between them.
func TestOneAllocationPerBlock(t *testing.T) {
	var a Arena
	id := []byte("ev0123456789abcdef-00000042")
	budget.Allocs(t, "strarena.block", 100, func() {
		a.Reset(16 * len(id))
		for i := 0; i < 16; i++ {
			a.String(id)
		}
	})
}

// Package a plants exported names for the exported-surface lint.
package a

// Unused has no caller at all: the lint reports it.
func Unused() {}

// OnlyTested has a caller only in a_test.go: the lint reports it.
func OnlyTested() int { return 1 }

// Kept has no caller, but the fixture's allowlist holds it.
func Kept() {}

// Name is used by main.
type Name string

// String has no caller in the module, but fmt calls it through
// fmt.Stringer.
func (n Name) String() string { return string(n) }

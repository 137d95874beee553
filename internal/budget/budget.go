// Package budget is the repository's allocation and resident-size
// budget: one table of ceilings (table.go), each with its reason, and
// the four helpers every gate reads its ceiling through. A helper skips
// its test under the race detector, whose instrumentation allocates and
// moves heap accounting, takes the reading, logs it beside the ceiling
// and fails the test above it. CI's un-raced "Allocation and
// resident-size gates" step runs every gate.
//
// Only _test.go files import this package: internal/lint's
// TestNoBinaryLinksTestOnlyPackages holds that line, and
// TestEveryRowHasOneGate holds the table to its readers.
package budget

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

// Allocs checks testing.AllocsPerRun(runs, f) against row: the heap
// allocations of one call of f, averaged over runs calls after a warm-up
// call, at GOMAXPROCS 1.
func Allocs(t testing.TB, row string, runs int, f func()) float64 {
	t.Helper()
	SkipRace(t)
	return check(t, row, testing.AllocsPerRun(runs, f))
}

// Mallocs checks the heap allocations of one call of f, counted at the
// GOMAXPROCS the caller set, per unit of work f reports doing.
func Mallocs(t testing.TB, row string, f func() (units int)) float64 {
	t.Helper()
	SkipRace(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	units := f()
	runtime.ReadMemStats(&after)
	return check(t, row, float64(after.Mallocs-before.Mallocs)/float64(units))
}

// Retained checks the live heap that one call of f leaves behind, per
// unit f reports. The heap is read after two collections on each side:
// the first moves sync.Pool contents to the victim cache, the second
// frees them. What f builds counts only if the caller keeps it past the
// call.
func Retained(t testing.TB, row string, f func() (units int)) float64 {
	t.Helper()
	SkipRace(t)
	before := liveHeap()
	units := f()
	return check(t, row, float64(int64(liveHeap())-int64(before))/float64(units))
}

// Gate checks what reading returns against row, for a reading none of
// the helpers above takes: the least of several, the worst of many, or
// the difference of two.
func Gate(t testing.TB, row string, reading func() float64) float64 {
	t.Helper()
	SkipRace(t)
	return check(t, row, reading())
}

// SkipRace skips t under the race detector, as every helper does. A
// gate whose set-up outlasts its reading calls it before the set-up.
func SkipRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates and moves heap accounting")
	}
}

func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// check logs got beside row's ceiling and fails t above it.
func check(t testing.TB, row string, got float64) float64 {
	t.Helper()
	c, ok := table[row]
	if !ok {
		t.Fatalf("budget: the table has no row %q", row)
	}
	if got > c.max {
		t.Errorf("%s: %s %s, ceiling %s: %s", row, num(got), c.unit, num(c.max), c.why)
	} else {
		t.Logf("%s: %s %s (ceiling %s)", row, num(got), c.unit, num(c.max))
	}
	return got
}

// num prints x to three significant digits, and whole from 1,000 up.
func num(x float64) string {
	if math.Abs(x) >= 1000 {
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
	return strconv.FormatFloat(x, 'g', 3, 64)
}

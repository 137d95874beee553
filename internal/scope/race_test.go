//go:build race

package scope

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so exact-alloc assertions skip under -race.
const raceEnabled = true

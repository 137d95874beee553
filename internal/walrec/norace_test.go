//go:build !race

package walrec

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

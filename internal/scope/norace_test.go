//go:build !race

package scope

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

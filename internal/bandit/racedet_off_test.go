//go:build !race

package bandit

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

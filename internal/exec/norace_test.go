//go:build !race

package exec_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

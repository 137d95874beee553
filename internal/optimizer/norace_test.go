//go:build !race

package optimizer_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

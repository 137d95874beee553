//go:build !race

package par

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

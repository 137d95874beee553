//go:build !race

package wal

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

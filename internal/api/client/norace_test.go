//go:build !race

package client_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false

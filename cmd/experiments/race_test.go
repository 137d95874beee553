//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// golden runs are skipped under it (7 s quick, tens of seconds full, and
// nothing they run is new to the race job: every package they drive has
// its own -race tests).
const raceEnabled = true

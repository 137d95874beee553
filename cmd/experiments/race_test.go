//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// golden run is skipped under it (minutes, and nothing it runs is new to
// the race job: every package it drives has its own -race tests).
const raceEnabled = true

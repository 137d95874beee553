//go:build race

package bandit

// raceEnabled reports whether the race detector is compiled in. A gate
// whose set-up outlasts its reading skips on it before the set-up runs;
// the budget helpers skip only once they are reached.
const raceEnabled = true

package drift

import "math/rand"

// Flood generates deterministic synthetic reward streams for the
// detector tests: a gaussian reward source whose mean can be shifted
// mid-stream to script a plan regression (reward collapse after a
// workload shift) and a later recovery. Determinism matters — the tests
// assert quarantine within a bounded number of observations, which only
// holds for a reproducible stream.
type Flood struct {
	rng   *rand.Rand
	mean  float64
	sigma float64
}

// NewFlood builds a reward source emitting N(mean, sigma²) values.
func NewFlood(seed int64, mean, sigma float64) *Flood {
	return &Flood{rng: rand.New(rand.NewSource(seed)), mean: mean, sigma: sigma}
}

// Shift moves the stream's mean — the scripted regression (downward
// shift) or recovery (back up).
func (f *Flood) Shift(mean float64) { f.mean = mean }

// Next draws one reward.
func (f *Flood) Next() float64 { return f.mean + f.sigma*f.rng.NormFloat64() }

// Batch draws n rewards.
func (f *Flood) Batch(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f.Next()
	}
	return out
}

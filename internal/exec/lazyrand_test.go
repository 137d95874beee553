package exec_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qoadvisor/internal/exec"
)

// boundarySeeds are the seeds math/rand's Seed treats specially: 0 and
// the multiples of 2³¹−1 (all seeded as 89482311), the extremes of
// int64, and the negative seeds it folds into [1, 2³¹−1).
var boundarySeeds = []int64{
	0, 1, -1, math.MaxInt32, -math.MaxInt32, 2 * math.MaxInt32,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 89482311,
}

// sameDraws fails t unless got and want yield the same n draws, cycling
// through the rand.Rand methods that read the source differently.
func sameDraws(t *testing.T, seed int64, got, want *rand.Rand, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		var g, w any
		switch k % 6 {
		case 0:
			g, w = got.Float64(), want.Float64()
		case 1:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 2:
			g, w = got.Intn(9000), want.Intn(9000)
		case 3:
			g, w = got.Uint64(), want.Uint64()
		case 4:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 5:
			g, w = got.Int63(), want.Int63()
		}
		if g != w {
			t.Fatalf("seed %d draw %d: %v, want %v", seed, k, g, w)
		}
	}
}

// TestSeededRandMatchesNewSource: a pooled generator, whatever it drew
// before, re-seeds into exactly the stream a fresh
// rand.New(rand.NewSource(seed)) produces — what every derived seed of the
// workload and the simulator relied on when each built its own. Long
// runs pass draw 274, the first read of a state word the stream itself
// wrote, and draw 608, the second lap of the state.
func TestSeededRandMatchesNewSource(t *testing.T) {
	seeds := slices.Clone(boundarySeeds)
	for i := uint64(0); i < 1000; i++ {
		seeds = append(seeds, int64(i*0x9e3779b97f4a7c15)) // spread over the int64 range, both signs
	}
	for i, seed := range seeds {
		n := 12
		if i < len(boundarySeeds) || i%50 == 0 {
			n = 2000
		}
		got := exec.SeededRand(seed)
		sameDraws(t, seed, got, rand.New(rand.NewSource(seed)), n)
		exec.ReleaseRand(got)
	}

	// A generator 1,000 draws into its stream, re-seeded in place and
	// then released and taken again: sync.Pool's per-P slot hands the
	// same one back, and Seed must have forgotten every word it wrote.
	rng := exec.SeededRand(42)
	sameDraws(t, 42, rng, rand.New(rand.NewSource(42)), 1000)
	rng.Seed(43)
	sameDraws(t, 43, rng, rand.New(rand.NewSource(43)), 2000)
	exec.ReleaseRand(rng)
	rng = exec.SeededRand(44)
	sameDraws(t, 44, rng, rand.New(rand.NewSource(44)), 2000)
	exec.ReleaseRand(rng)
}

// FuzzLazySource holds SeededRand's generator to
// rand.New(rand.NewSource(seed)) under a script of calls: each byte
// picks a method, and the methods that take an argument read it from
// the next byte. A Perm or Shuffle of up to 255 draws takes a short
// script past the 607 words of state.
func FuzzLazySource(f *testing.F) {
	var script []byte
	for i := 0; i < 40; i++ {
		script = append(script, byte(i), byte(37*i+5))
	}
	for _, seed := range boundarySeeds {
		f.Add(seed, script)
	}
	f.Add(int64(7), []byte{7, 255, 7, 255, 8, 200, 1, 9, 3, 7, 255, 7, 255, 7, 255, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		got := exec.SeededRand(seed)
		defer exec.ReleaseRand(got)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < len(script); i++ {
			op := script[i] % 10
			arg := 0
			if (op == 2 || op == 3 || op >= 7) && i+1 < len(script) {
				i++
				arg = int(script[i])
			}
			var g, w any
			switch op {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = got.Int31n(int32(arg+1)), want.Int31n(int32(arg+1))
			case 3:
				n := 1 + arg<<(arg%40) // both sides of Intn's Int31n/Int63n split
				g, w = got.Intn(n), want.Intn(n)
			case 4:
				g, w = got.Float64(), want.Float64()
			case 5:
				g, w = got.NormFloat64(), want.NormFloat64()
			case 6:
				g, w = got.ExpFloat64(), want.ExpFloat64()
			case 7:
				gp, wp := got.Perm(arg), want.Perm(arg)
				if !slices.Equal(gp, wp) {
					t.Fatalf("step %d: Perm(%d) %v, want %v", i, arg, gp, wp)
				}
			case 8:
				gs, ws := make([]int, arg), make([]int, arg)
				for k := range gs {
					gs[k], ws[k] = k, k
				}
				got.Shuffle(arg, func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
				want.Shuffle(arg, func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
				if !slices.Equal(gs, ws) {
					t.Fatalf("step %d: Shuffle(%d) %v, want %v", i, arg, gs, ws)
				}
			case 9:
				seed = seed*6364136223846793005 + int64(arg)
				got.Seed(seed)
				want.Seed(seed)
			}
			if g != w {
				t.Fatalf("step %d (op %d, arg %d): %v, want %v", i, op, arg, g, w)
			}
		}
	})
}

// seededRandAllocCeiling is TestSeededRandAllocBudget's: a warm pool
// hands out a generator and Seed writes no memory it did not own.
const seededRandAllocCeiling = 0

var sinkDraw float64

// TestSeededRandAllocBudget: a seed plus two draws, the simulator's and
// the workload generator's unit of use, allocates nothing.
func TestSeededRandAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	var seed int64
	got := testing.AllocsPerRun(1000, func() {
		seed++
		rng := exec.SeededRand(seed)
		sinkDraw += rng.Float64() + float64(rng.Intn(9000))
		exec.ReleaseRand(rng)
	})
	if got > seededRandAllocCeiling {
		t.Errorf("%.2f allocs per seed and two draws, ceiling %d", got, seededRandAllocCeiling)
	}
}

// BenchmarkSeededRand times a seed plus two draws.
func BenchmarkSeededRand(b *testing.B) {
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		rng := exec.SeededRand(int64(i))
		sinkDraw += rng.Float64() + float64(rng.Intn(9000))
		exec.ReleaseRand(rng)
	}
}

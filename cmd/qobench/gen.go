package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"

	"qoadvisor/internal/api"
)

// The load model's constants. They are not flags: two result files are
// comparable only if they were produced under the same shape.
const (
	batchSize = 16   // jobs per op
	zipfS     = 1.1  // skew over the template population
	rewardAmp = 0.05 // rewards sit within ±5% of the template's stationary mean
)

// tmpl is one job template as the serving layer sees it: the wire
// features of its jobs and the stationary mean its rewards are drawn
// around.
type tmpl struct {
	hash   api.TemplateHash
	span   []int
	rows   float64
	bytes  float64
	reward float64
}

// genPopulation draws n synthetic templates: spans of 2–8 optional-rule
// bits (IDs ≥ 32 are never Required, so every span bit is a legal hint
// flip), row and byte counts log-uniform per template. Which bits is
// drawn from the seed; how many is fixed by the template's popularity
// rank (2, 3, … 8, 2, …), because a bandit decision's cost grows with
// the span and Zipf sends an eighth of all traffic to rank 0 alone —
// were its span length drawn too, the seed would move allocs_per_job by
// several percent and no 1% bound could hold.
func genPopulation(rng *rand.Rand, n int) []tmpl {
	pop := make([]tmpl, n)
	for i := range pop {
		k := 2 + i%7
		span := make([]int, 0, k)
		for len(span) < k {
			if b := 32 + rng.Intn(256-32); !slices.Contains(span, b) {
				span = append(span, b)
			}
		}
		sort.Ints(span)
		pop[i] = tmpl{
			hash:   api.TemplateHash(rng.Uint64() | 1),
			span:   span,
			rows:   math.Floor(math.Exp(rng.Float64() * math.Log(1e6))),
			bytes:  math.Floor(math.Exp(rng.Float64() * math.Log(1e9))),
			reward: 0.5 + rng.Float64(),
		}
	}
	return pop
}

// opStream is the whole request sequence of one workload, generated up
// front: for every job of every op the template it instantiates and the
// noise its reward carries. 8 bytes per job, so a 3.2M-job stream costs
// 26 MB rather than the 200 MB a []api.RankRequest would.
type opStream struct {
	tmplIdx []uint32
	noise   []float32 // in [-1, 1)
}

func (s *opStream) ops() int { return len(s.tmplIdx) / batchSize }

// genStream draws ops×batchSize jobs Zipf(s=1.1) over a population of
// popSize templates (rank 0 is the hottest).
func genStream(rng *rand.Rand, popSize, ops int) *opStream {
	z := rand.NewZipf(rng, zipfS, 1, uint64(popSize-1))
	s := &opStream{
		tmplIdx: make([]uint32, ops*batchSize),
		noise:   make([]float32, ops*batchSize),
	}
	for i := range s.tmplIdx {
		s.tmplIdx[i] = uint32(z.Uint64())
		s.noise[i] = float32(2*rng.Float64() - 1)
	}
	return s
}

// streamHash fingerprints everything the program will be sent: the
// population's wire features and the op stream. Same seed ⇒ same hash.
func streamHash(pop []tmpl, s *opStream) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, t := range pop {
		put(uint64(t.hash))
		put(uint64(len(t.span)))
		for _, bit := range t.span {
			put(uint64(bit))
		}
		put(math.Float64bits(t.rows))
		put(math.Float64bits(t.bytes))
		put(math.Float64bits(t.reward))
	}
	for i, idx := range s.tmplIdx {
		put(uint64(idx)<<32 | uint64(math.Float32bits(s.noise[i])))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fillBatch materializes op i of the stream into the caller's reusable
// job buffer (no allocation: spans are shared with the population).
func (s *opStream) fillBatch(pop []tmpl, i int, jobs []api.RankRequest) {
	base := i * batchSize
	for j := range jobs {
		t := &pop[s.tmplIdx[base+j]]
		jobs[j] = api.RankRequest{TemplateHash: t.hash, Span: t.span, RowCount: t.rows, BytesRead: t.bytes}
	}
}

// reward is the telemetry value job k of the stream (job k%batchSize of
// op k/batchSize) reports.
func (s *opStream) reward(pop []tmpl, k int) float64 {
	return pop[s.tmplIdx[k]].reward * (1 + rewardAmp*float64(s.noise[k]))
}

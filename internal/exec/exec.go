// Package exec simulates distributed execution of physical plans on a
// SCOPE-like cluster. It produces the runtime metrics the paper's
// experiments are built on — latency, PNhours (total CPU + I/O time over
// all vertices), vertices count, DataRead and DataWritten — and models the
// cloud variability that makes latency a poor optimization target:
// stragglers and queueing noise hit the latency critical path hard, while
// PNhours stays comparatively stable because data volumes are
// deterministic (§5.1 of the paper).
package exec

import (
	"math"
	"math/rand"
	"sync"

	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/scope"
)

// Metrics are the runtime statistics logged for one job execution.
type Metrics struct {
	LatencySec  float64
	PNHours     float64
	Vertices    int
	DataRead    float64 // bytes
	DataWritten float64 // bytes
	MaxMemory   float64 // bytes, max per-vertex working set
	AvgMemory   float64 // bytes, mean per-vertex working set
	TotalCPUSec float64
	TotalIOSec  float64
}

// Truth is the ground-truth cardinality environment: the real base-table
// sizes and the real per-site selectivities of a job instance. It
// implements optimizer.Environment, so the optimizer's own cardinality
// engine can be re-run under truth (the simulator's "actual" data flow).
//
// Its facts are positional: keys with parallel values, in the order the
// workload generator makes them (a template's tables and sites). A lookup
// scans for its key and the last match wins, as the last write did when
// these were maps: two site patterns can substitute to one key.
type Truth struct {
	// Paths are table paths and Rows, parallel to them, their true row
	// counts.
	Paths []string
	Rows  []float64
	// Sites are operator site keys and Sel, parallel to them, their true
	// selectivities/fractions.
	Sites []string
	Sel   []float64
	// JitterSeed derives deterministic selectivity jitter for sites not
	// among Sites (predicates synthesized by rewrites).
	JitterSeed int64
}

// lastIndex returns the index of the last element of keys equal to key,
// or -1.
func lastIndex[S string | []byte](keys []string, key S) int {
	for i := len(keys) - 1; i >= 0; i-- {
		if keys[i] == string(key) {
			return i
		}
	}
	return -1
}

// BaseRows implements optimizer.Environment.
func (t *Truth) BaseRows(path string) float64 {
	if i := lastIndex(t.Paths, path); i >= 0 {
		return t.Rows[i]
	}
	return 1e6
}

// Selectivity implements optimizer.Environment: known sites return their
// true value; unknown sites get the heuristic distorted by a deterministic
// per-site jitter, so even synthesized predicates behave consistently
// across recompilations.
func (t *Truth) Selectivity(site []byte, heuristic float64) float64 {
	if i := lastIndex(t.Sites, site); i >= 0 {
		return t.Sel[i]
	}
	rng := SeededRand(int64(scope.FNV1a(scope.FNVOffset64, site)) ^ t.JitterSeed)
	u := rng.Float64()
	ReleaseRand(rng)
	// Log-uniform distortion in [1/4, 4): true selectivities routinely
	// differ from estimates by multiples.
	factor := math.Exp((u*2 - 1) * math.Ln2 * 2)
	s := heuristic * factor
	if s > 1 {
		s = 1
	}
	if s < 1e-5 {
		s = 1e-5
	}
	return s
}

// rngPool recycles generators: a source is 4.9 KB of state, and the
// simulator and the workload generator each want one per derived seed,
// often to draw a single number. Its sources are lazySources, so a seed
// costs tens of nanoseconds, not the ≈ 14 µs a math/rand source spends
// filling its state.
var rngPool = sync.Pool{New: func() any { return rand.New(new(lazySource)) }}

// SeededRand returns a generator in the state rand.New(rand.NewSource(seed))
// starts in — the same stream — for the calling goroutine alone; hand it
// back with ReleaseRand when done. Seeding is O(1) and allocates nothing
// once the pool is warm, so a generator per value drawn is cheap.
func SeededRand(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// ReleaseRand returns a SeededRand generator to the pool.
func ReleaseRand(rng *rand.Rand) { rngPool.Put(rng) }

// Cluster models the execution environment and its variability.
type Cluster struct {
	// Seed is the cluster's base randomness seed; combined with the
	// per-run seed so A/A runs differ.
	Seed int64

	// The noise model, set by DefaultCluster (a Cluster built as a
	// literal is noise-free); only this package's tests change it.
	stragglerSigma float64 // lognormal per-stage straggler tail on stage latency
	queueSigma     float64 // global lognormal queueing/scheduling noise on job latency
	cpuNoiseSigma  float64 // small lognormal noise on total CPU time (and hence PNhours)
	ioNoiseSigma   float64 // bounded lognormal noise on total I/O time: fixed volumes, varying service times
	hiccupProb     float64 // probability that a run hits a cluster hiccup
	hiccupFactor   float64 // latency multiplier of a hiccup (the >100% variance tail)
}

// DefaultCluster returns a cluster with variability calibrated to the
// paper's A/A observations: most jobs above 5% latency variance, fewer
// than half above 5% PNhours variance.
func DefaultCluster(seed int64) *Cluster {
	return &Cluster{
		Seed:           seed,
		stragglerSigma: 0.18,
		queueSigma:     0.16,
		cpuNoiseSigma:  0.12,
		ioNoiseSigma:   0.04,
		hiccupProb:     0.04,
		hiccupFactor:   2.5,
	}
}

// Simulated hardware constants (microseconds per row, bytes per second).
const (
	diskBytesPerSec = 110e6
	netBytesPerSec  = 16e6
	vertexStartupMs = 180.0
	perVertexCPUSec = 0.05 // scheduling + container overhead per vertex
)

// cpuMicrosPerRow returns the per-row CPU cost of a physical operator in
// microseconds. These "true" constants deliberately differ from the cost
// model's weights: the gap is the cost-model error the paper measures.
func cpuMicros(n *optimizer.PhysNode, inRows []float64, outRows float64) float64 {
	total := 0.0
	for _, r := range inRows {
		total += r
	}
	switch n.Op {
	case optimizer.PhysRowScan:
		return outRows * 0.18
	case optimizer.PhysColumnScan:
		return outRows * 0.28
	case optimizer.PhysIndexSeek:
		return outRows * 0.4
	case optimizer.PhysFilter:
		return total * 0.06
	case optimizer.PhysProject:
		return total * 0.05
	case optimizer.PhysHashJoin:
		build := 0.0
		if len(inRows) == 2 {
			build = inRows[1] * 0.5
		}
		return total*0.3 + build + outRows*0.2
	case optimizer.PhysMergeJoin:
		return total*0.45 + outRows*0.2
	case optimizer.PhysBroadcastJoin:
		build := 0.0
		if len(inRows) == 2 {
			// The build side is replicated into every partition.
			build = inRows[1] * 0.5 * float64(max(n.Partitions, 1))
		}
		return inRows[0]*0.3 + build + outRows*0.2
	case optimizer.PhysNestedLoopJoin:
		if len(inRows) == 2 {
			return inRows[0] * inRows[1] * 0.002
		}
		return total * 0.3
	case optimizer.PhysHashAgg:
		return total*0.45 + outRows*0.2
	case optimizer.PhysStreamAgg:
		return total*(0.12+0.014*math.Log2(math.Max(total, 2))) + outRows*0.1
	case optimizer.PhysSort, optimizer.PhysTopNSort:
		c := total * 0.08 * math.Log2(math.Max(total, 2))
		if n.PackFactor > 0 && n.PackFactor != 1 {
			c *= n.PackFactor
		}
		return c
	case optimizer.PhysTopNHeap:
		return total * 0.12
	case optimizer.PhysConcatUnion:
		return total * 0.01
	case optimizer.PhysSortedUnion:
		return total * 0.2
	case optimizer.PhysExchange:
		c := total * 0.05
		if n.Compress {
			c = total * 0.22 // compression costs CPU
		}
		return c
	case optimizer.PhysReduce:
		return total * 1.2 // user-defined reducers are CPU heavy
	case optimizer.PhysProcess:
		return total * 0.6
	case optimizer.PhysOutput:
		return total * 0.05
	default:
		return total * 0.1
	}
}

// ioBytes returns (read, written) bytes for a physical node given true
// cardinalities.
func ioBytes(n *optimizer.PhysNode, rows []float64, truth *Truth) (read, written float64) {
	out := rows[n.ID]
	width := float64(n.RowWidth)
	switch n.Op {
	case optimizer.PhysRowScan:
		base := truth.BaseRows(scanPath(n))
		w := float64(n.BaseWidth)
		if w == 0 {
			w = width
		}
		return base * w, 0
	case optimizer.PhysColumnScan:
		base := truth.BaseRows(scanPath(n))
		return base * width * 1.05, 0
	case optimizer.PhysIndexSeek:
		return out*width + 4096*float64(max(n.Partitions, 1)), 0
	case optimizer.PhysExchange:
		if n.Fused {
			return 0, 0
		}
		in := 0.0
		for _, i := range n.Inputs {
			in += rows[i.ID]
		}
		bytes := in * width
		if n.Exchange == optimizer.ExchangeBroadcast {
			bytes *= float64(max(n.Partitions, 1))
		}
		if n.Compress {
			bytes *= 0.55
		}
		// Shuffled data is written by the producer and read by the
		// consumer.
		return bytes, bytes
	case optimizer.PhysOutput:
		return 0, out * width
	case optimizer.PhysSort, optimizer.PhysTopNSort:
		// External sorts spill a pass to disk.
		in := 0.0
		for _, i := range n.Inputs {
			in += rows[i.ID]
		}
		spill := in * width * 0.5
		return spill, spill
	default:
		return 0, 0
	}
}

func scanPath(n *optimizer.PhysNode) string {
	if n.Logical != nil {
		return n.Logical.TablePath
	}
	return ""
}

// memoryBytes returns the per-vertex working set of an operator.
func memoryBytes(n *optimizer.PhysNode, rows []float64) float64 {
	parts := float64(max(n.Partitions, 1))
	width := float64(n.RowWidth)
	switch n.Op {
	case optimizer.PhysHashJoin:
		if len(n.Inputs) == 2 {
			return rows[n.Inputs[1].ID] * width / parts
		}
	case optimizer.PhysBroadcastJoin, optimizer.PhysNestedLoopJoin:
		if len(n.Inputs) == 2 {
			return rows[n.Inputs[1].ID] * width // full build copy per vertex
		}
	case optimizer.PhysHashAgg:
		return rows[n.ID] * width / parts
	case optimizer.PhysSort, optimizer.PhysTopNSort:
		in := 0.0
		for _, i := range n.Inputs {
			in += rows[i.ID]
		}
		return in * width / parts * 0.25
	}
	return 64 << 20 // baseline container working set
}

// runScratch is what one Run works in: the plan's true row counts, one
// node's input row counts, and the per-stage accumulators. It holds only
// numbers, so a pooled scratch keeps nothing of the run it served.
type runScratch struct {
	rows   []float64 // by PhysNode.ID
	inRows []float64
	acc    []float64 // 4 per stage ID
}

var runScratches = sync.Pool{New: func() any { return new(runScratch) }}

// Run executes the plan once against the truth environment and returns
// its metrics. runSeed distinguishes repeated executions: two runs with
// different seeds model an A/A pair. Run only reads the plan, truth and
// stats, and keeps nothing of them after it returns: it works in pooled
// scratch, so a warmed Run allocates nothing.
func Run(plan *optimizer.Plan, truth *Truth, stats optimizer.StatsProvider, cluster *Cluster, runSeed int64) Metrics {
	sc := runScratches.Get().(*runScratch)
	defer runScratches.Put(sc)
	sc.rows = plan.Recardinalize(sc.rows, truth, stats)
	rows := sc.rows
	rng := SeededRand(cluster.Seed*1e9 + runSeed)
	defer ReleaseRand(rng)

	// Per-stage accumulators, indexed by stage ID: CPU and I/O seconds,
	// the stage's latency, and the critical path ending at it.
	ids := 1
	for i := range plan.Stages {
		ids = max(ids, plan.Stages[i].ID+1)
	}
	if cap(sc.acc) < 4*ids {
		sc.acc = make([]float64, 4*ids)
	}
	acc := sc.acc[:4*ids]
	clear(acc)
	stageCPU, stageIO, stageLatency, depth := acc[:ids], acc[ids:2*ids], acc[2*ids:3*ids], acc[3*ids:]

	var m Metrics
	maxMem := 0.0
	sumMem := 0.0
	memCount := 0

	for _, n := range plan.Nodes() {
		if n.Fused {
			continue
		}
		inRows := sc.inRows[:0]
		for _, in := range n.Inputs {
			inRows = append(inRows, rows[in.ID])
		}
		sc.inRows = inRows
		out := rows[n.ID]
		cpuSec := cpuMicros(n, inRows, out) / 1e6
		read, written := ioBytes(n, rows, truth)
		ioSec := read/diskBytesPerSec + written/netBytesPerSec

		m.DataRead += read
		m.DataWritten += written
		m.TotalCPUSec += cpuSec
		m.TotalIOSec += ioSec
		stageCPU[n.StageID] += cpuSec
		stageIO[n.StageID] += ioSec

		mem := memoryBytes(n, rows)
		if mem > maxMem {
			maxMem = mem
		}
		sumMem += mem
		memCount++
	}

	// Vertices: the compiled plan's stage parallelism.
	for i := range plan.Stages {
		m.Vertices += plan.Stages[i].Partitions
	}

	// PNhours: total CPU + I/O over all vertices plus per-vertex
	// overhead. CPU gets small multiplicative noise; I/O is bounded
	// because data read and written stay constant across runs (§4.3).
	cpuNoise := math.Exp(rng.NormFloat64() * cluster.cpuNoiseSigma)
	ioNoise := math.Exp(rng.NormFloat64() * cluster.ioNoiseSigma)
	totalSec := m.TotalCPUSec*cpuNoise + m.TotalIOSec*ioNoise + perVertexCPUSec*float64(m.Vertices)
	m.PNHours = totalSec / 3600

	// Latency: critical path over the stage DAG, with per-stage
	// straggler noise and global queueing noise.
	for i := range plan.Stages {
		s := &plan.Stages[i]
		parts := float64(max(s.Partitions, 1))
		work := (stageCPU[s.ID] + stageIO[s.ID]) / parts
		// The slowest of P vertices: lognormal straggler whose tail
		// grows with the fan-out.
		straggler := math.Exp(math.Abs(rng.NormFloat64()) * cluster.stragglerSigma * math.Sqrt(math.Log2(parts+1)))
		stageLatency[s.ID] = work*straggler + vertexStartupMs/1000
	}
	// Longest path: stages' InputIDs point upstream.
	for i := range depth {
		depth[i] = -1 // not visited
	}
	longest := 0.0
	for i := range plan.Stages {
		if d := criticalPath(plan.Stages, plan.Stages[i].ID, stageLatency, depth); d > longest {
			longest = d
		}
	}
	queue := math.Exp(rng.NormFloat64() * cluster.queueSigma)
	if rng.Float64() < cluster.hiccupProb {
		queue *= cluster.hiccupFactor
	}
	m.LatencySec = longest * queue

	m.MaxMemory = maxMem
	if memCount > 0 {
		m.AvgMemory = sumMem / float64(memCount)
	}
	return m
}

// criticalPath returns the latency of the longest chain of stages ending
// at stage id, memoized in depth (by stage ID; negative = not visited).
func criticalPath(stages []optimizer.Stage, id int, latency, depth []float64) float64 {
	if depth[id] >= 0 {
		return depth[id]
	}
	depth[id] = 0 // guard cycles (none expected)
	best := 0.0
	for i := range stages {
		st := &stages[i]
		if st.ID != id {
			continue
		}
		for _, in := range st.InputIDs {
			if d := criticalPath(stages, in, latency, depth); d > best {
				best = d
			}
		}
		best += latency[id]
		break
	}
	depth[id] = best
	return best
}

// RunN performs n A/A executions with distinct run seeds.
func RunN(plan *optimizer.Plan, truth *Truth, stats optimizer.StatsProvider, cluster *Cluster, baseSeed int64, n int) []Metrics {
	out := make([]Metrics, n)
	for i := 0; i < n; i++ {
		out[i] = Run(plan, truth, stats, cluster, baseSeed+int64(i)*7919)
	}
	return out
}

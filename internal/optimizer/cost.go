package optimizer

import (
	"math"

	"qoadvisor/internal/scope"
)

// TableStats holds optimizer-visible statistics for a base table. The
// workload generator produces these with realistic estimation error
// relative to the true data, which is what makes estimated costs diverge
// from real performance (§5.2 of the paper).
type TableStats struct {
	Rows float64
	// NDV maps column name to its estimated distinct-value count.
	NDV map[string]float64
}

// StatsProvider supplies estimated base-table statistics at compile time.
type StatsProvider interface {
	TableStats(path string) (TableStats, bool)
}

// MapStats is a StatsProvider backed by a map, used by tests and the
// scopesim demo. A workload instance's statistics are positional instead:
// estimated rows by table position, beside the instance's dated paths.
type MapStats map[string]TableStats

// TableStats implements StatsProvider.
func (m MapStats) TableStats(path string) (TableStats, bool) {
	ts, ok := m[path]
	return ts, ok
}

// Environment abstracts where cardinality knowledge comes from. The
// optimizer uses an estimation environment built from StatsProvider
// heuristics; the execution simulator uses a ground-truth environment
// that overrides per-site selectivities with the workload's true values.
type Environment interface {
	// BaseRows returns the row count of a base table.
	BaseRows(path string) float64
	// Selectivity returns the effective selectivity (or fraction) for the
	// operator site identified by siteKey. heuristic is the optimizer's
	// estimate; a ground-truth environment replaces it with the true value
	// when the site is known. siteKey is the caller's scratch: valid for
	// the call only, so an implementation that keeps it copies it.
	Selectivity(siteKey []byte, heuristic float64) float64
}

// EstimationEnv is the optimizer's own environment: base rows from the
// stats provider, selectivities straight from the heuristics.
type EstimationEnv struct {
	Stats StatsProvider
	// DefaultRows is used for tables missing from the provider.
	DefaultRows float64
}

// BaseRows implements Environment. A nil Stats knows no table.
func (e *EstimationEnv) BaseRows(path string) float64 {
	if e.Stats != nil {
		if ts, ok := e.Stats.TableStats(path); ok && ts.Rows > 0 {
			return ts.Rows
		}
	}
	if e.DefaultRows > 0 {
		return e.DefaultRows
	}
	return 1e6
}

// Selectivity implements Environment: the heuristic is the estimate.
func (e *EstimationEnv) Selectivity(_ []byte, heuristic float64) float64 {
	return heuristic
}

// ndvOf returns the estimated distinct-value count of a column, given its
// base-table source identity, capped by the current row estimate.
func ndvOf(stats StatsProvider, col scope.Column, rows float64) float64 {
	ndv := rows / 10 // computed columns: assume mild redundancy
	if col.Source != "" && stats != nil {
		path, name := splitSource(col.Source)
		if ts, ok := stats.TableStats(path); ok {
			if v, ok := ts.NDV[name]; ok && v > 0 {
				ndv = v
			}
		}
	}
	return clampCard(math.Min(ndv, rows))
}

func splitSource(source string) (path, col string) {
	for i := len(source) - 1; i >= 0; i-- {
		if source[i] == ':' {
			return source[:i], source[i+1:]
		}
	}
	return source, ""
}

func clampCard(rows float64) float64 { return max(rows, 1) }

// Selectivity heuristics, in the spirit of System R defaults.
const (
	selRange      = 0.30
	selInequality = 0.90
	selDefault    = 0.10
	semiJoinSel   = 0.50
	reduceFrac    = 0.40
	processFrac   = 1.00
)

// predSelectivity estimates the selectivity of a predicate over the given
// input schema using textbook heuristics.
func predSelectivity(pred scope.Expr, cols []scope.Column, rows float64, stats StatsProvider) float64 {
	switch e := pred.(type) {
	case *scope.BinaryExpr:
		switch e.Op {
		case "AND":
			return predSelectivity(e.Left, cols, rows, stats) * predSelectivity(e.Right, cols, rows, stats)
		case "OR":
			s1 := predSelectivity(e.Left, cols, rows, stats)
			s2 := predSelectivity(e.Right, cols, rows, stats)
			return s1 + s2 - s1*s2
		case "==":
			if cr := asColRef(e.Left, e.Right); cr != nil {
				col, ok := findCol(cols, cr.Name)
				if ok {
					return 1 / ndvOf(stats, col, rows)
				}
			}
			return selDefault
		case "!=":
			return selInequality
		case "<", "<=", ">", ">=":
			return selRange
		default:
			return selDefault
		}
	case *scope.UnaryExpr:
		if e.Op == "NOT" {
			return clampSel(1 - predSelectivity(e.Expr, cols, rows, stats))
		}
		return selDefault
	case *scope.BoolLit:
		if e.Value {
			return 1
		}
		return 0.001
	default:
		return selDefault
	}
}

func clampSel(s float64) float64 { return min(max(s, 0.0001), 1) }

// asColRef returns the column reference when exactly one side of a
// comparison is a column and the other a literal.
func asColRef(l, r scope.Expr) *scope.ColRef {
	lc, lok := l.(*scope.ColRef)
	rc, rok := r.(*scope.ColRef)
	switch {
	case lok && !rok:
		return lc
	case rok && !lok:
		return rc
	default:
		return nil
	}
}

func findCol(cols []scope.Column, name string) (scope.Column, bool) {
	for _, c := range cols {
		if c.Name == name {
			return c, true
		}
	}
	return scope.Column{}, false
}

// joinKeyNDV extracts the equi-join key columns from a join condition and
// returns the larger of the two key NDVs, the denominator of the classic
// join-size estimate |L||R|/max(ndv).
func joinKeyNDV(cond scope.Expr, leftCols, rightCols []scope.Column, leftRows, rightRows float64, stats StatsProvider) float64 {
	eq := firstColEquality(cond)
	if eq == nil {
		return 1 // cross-join-like: no reduction
	}
	a := eq.Left.(*scope.ColRef)
	b := eq.Right.(*scope.ColRef)
	ndv := 1.0
	for _, pair := range []struct {
		ref  *scope.ColRef
		cols []scope.Column
		rows float64
	}{{a, leftCols, leftRows}, {b, rightCols, rightRows}, {a, rightCols, rightRows}, {b, leftCols, leftRows}} {
		if col, ok := findCol(pair.cols, pair.ref.Name); ok {
			ndv = math.Max(ndv, ndvOf(stats, col, pair.rows))
		}
	}
	return ndv
}

// firstColEquality returns the first column-to-column equality in e,
// depth-first, or nil.
func firstColEquality(e scope.Expr) *scope.BinaryExpr {
	be, ok := e.(*scope.BinaryExpr)
	if !ok {
		return nil
	}
	if be.Op == "==" {
		if _, lok := be.Left.(*scope.ColRef); lok {
			if _, rok := be.Right.(*scope.ColRef); rok {
				return be
			}
		}
	}
	if eq := firstColEquality(be.Left); eq != nil {
		return eq
	}
	return firstColEquality(be.Right)
}

// HasEquiCond reports whether a join condition contains a column-to-column
// equality, which hash/merge join implementations require.
func HasEquiCond(cond scope.Expr) bool {
	switch e := cond.(type) {
	case *scope.BinaryExpr:
		if e.Op == "==" {
			_, lok := e.Left.(*scope.ColRef)
			_, rok := e.Right.(*scope.ColRef)
			if lok && rok {
				return true
			}
		}
		return HasEquiCond(e.Left) || HasEquiCond(e.Right)
	case *scope.UnaryExpr:
		return HasEquiCond(e.Expr)
	default:
		return false
	}
}

// cardEngine computes output cardinalities for logical nodes against an
// Environment. The same engine serves the optimizer (estimation
// environment) and the execution simulator (ground-truth environment), so
// the two disagree exactly where their environments disagree. An engine
// serves the nodes of one graph (its memo is indexed by scope.Node.ID)
// from one goroutine; reset re-points it and clears the memo in place.
type cardEngine struct {
	env   Environment
	stats StatsProvider
	memo  []float64    // by node ID; 0 = not computed (a cardinality is >= 1)
	conj  []scope.Expr // scratch: conjuncts of the predicate being estimated
	key   []byte       // scratch: the site key being looked up
}

// reset points the engine at env and stats and forgets every cardinality;
// bound is the graph's IDBound (later IDs grow the memo).
func (ce *cardEngine) reset(env Environment, stats StatsProvider, bound int) {
	ce.env, ce.stats = env, stats
	ce.memo = zeroed(ce.memo, bound)
}

// release drops what points into the caller's world — env, stats and
// every conjunct slot of the scratch, up to its capacity — so that a
// pooled engine pins nothing. The scratch keeps its capacity.
func (ce *cardEngine) release() {
	ce.reset(nil, nil, 0)
	clearCap(ce.conj)
}

// zeroed returns s resized to n zero elements, in place when it fits.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// grown returns s extended with zero elements to at least n.
func grown[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// filterSel computes the selectivity of a predicate conjunct-by-conjunct,
// so that splitting or merging filters never changes cardinalities: each
// conjunct keeps its own stable site key.
func (ce *cardEngine) filterSel(pred scope.Expr, cols []scope.Column, rows float64) float64 {
	sel := 1.0
	ce.conj = scope.AppendConjuncts(ce.conj[:0], pred)
	for _, c := range ce.conj {
		heur := predSelectivity(c, cols, rows, ce.stats)
		ce.key = scope.AppendExpr(append(ce.key[:0], "filter:"...), c)
		sel *= clampSel(ce.env.Selectivity(ce.key, heur))
	}
	return clampSel(sel)
}

// siteSel is the environment's selectivity for n's own site.
func (ce *cardEngine) siteSel(n *scope.Node, heuristic float64) float64 {
	ce.key = n.AppendSiteKey(ce.key[:0])
	return ce.env.Selectivity(ce.key, heuristic)
}

// rows returns the output cardinality of a logical node.
func (ce *cardEngine) rows(n *scope.Node) float64 {
	if n.ID < len(ce.memo) && ce.memo[n.ID] != 0 {
		return ce.memo[n.ID]
	}
	r := ce.compute(n)
	ce.memo = grown(ce.memo, n.ID+1)
	ce.memo[n.ID] = r
	return r
}

func (ce *cardEngine) compute(n *scope.Node) float64 {
	switch n.Kind {
	case scope.OpScan:
		rows := ce.env.BaseRows(n.TablePath)
		if n.Pred != nil { // pushed-down scan predicate
			rows *= ce.filterSel(n.Pred, n.Cols, rows)
		}
		return clampCard(rows)

	case scope.OpFilter:
		in := ce.rows(n.Inputs[0])
		sel := ce.filterSel(n.Pred, n.Inputs[0].Cols, in)
		return clampCard(in * sel)

	case scope.OpJoin:
		l := ce.rows(n.Inputs[0])
		r := ce.rows(n.Inputs[1])
		switch n.JoinType {
		case scope.JoinSemi:
			sel := ce.siteSel(n, semiJoinSel)
			return clampCard(l * clampSel(sel))
		default:
			ndv := joinKeyNDV(n.JoinCond, n.Inputs[0].Cols, n.Inputs[1].Cols, l, r, ce.stats)
			heur := 1 / ndv
			sel := ce.siteSel(n, heur)
			out := l * r * sel
			switch n.JoinType {
			case scope.JoinLeft:
				out = math.Max(out, l)
			case scope.JoinRight:
				out = math.Max(out, r)
			case scope.JoinFull:
				out = math.Max(out, l+r)
			}
			return clampCard(out)
		}

	case scope.OpAgg:
		in := ce.rows(n.Inputs[0])
		if len(n.GroupBy) == 0 {
			return 1
		}
		groups := 1.0
		for _, g := range n.GroupBy {
			groups *= ndvOf(ce.stats, g, in)
		}
		heur := clampSel(math.Min(groups, in/2) / math.Max(in, 1))
		frac := ce.siteSel(n, heur)
		out := clampCard(in * clampSel(frac))
		if n.Partial {
			// A partial agg reduces within each partition only; model the
			// reduction as weaker than the final agg's.
			out = clampCard(math.Min(in, out*4))
		}
		return out

	case scope.OpDistinct:
		in := ce.rows(n.Inputs[0])
		groups := 1.0
		for _, c := range n.Cols {
			groups *= ndvOf(ce.stats, c, in)
		}
		heur := clampSel(math.Min(groups, in*0.9) / math.Max(in, 1))
		frac := ce.siteSel(n, heur)
		return clampCard(in * clampSel(frac))

	case scope.OpUnion:
		sum := 0.0
		for _, in := range n.Inputs {
			sum += ce.rows(in)
		}
		return clampCard(sum)

	case scope.OpSort, scope.OpProject, scope.OpOutput:
		return ce.rows(n.Inputs[0])

	case scope.OpTop:
		in := ce.rows(n.Inputs[0])
		return clampCard(math.Min(float64(n.TopN), in))

	case scope.OpReduce:
		in := ce.rows(n.Inputs[0])
		frac := ce.siteSel(n, reduceFrac)
		return clampCard(in * clampSel(frac))

	case scope.OpProcess:
		in := ce.rows(n.Inputs[0])
		frac := ce.siteSel(n, processFrac)
		return clampCard(in * clampSel(frac))

	default:
		if len(n.Inputs) > 0 {
			return ce.rows(n.Inputs[0])
		}
		return 1
	}
}

// Cost model weights. The estimated cost is a unitless quantity combining
// CPU and I/O work; its weights deliberately differ from the execution
// simulator's true time constants — cost models are "well known to be
// lacking" (§2.2) and that gap is central to the paper's findings.
const (
	costCPUPerRow      = 1.0
	costIOPerByte      = 0.02
	costHashBuildRow   = 2.0
	costSortRowLog     = 0.4
	costNLJPerRowPair  = 0.01
	costExchangePerB   = 0.004
	costBroadcastPerB  = 0.003
	costSeekReduction  = 0.05
	costStartupPerPart = 1500.0
)

// scanCost is the estimated cost of scan operator op producing outRows
// rows width bytes wide from a table baseWidth bytes wide (0: unknown).
func scanCost(op PhysOp, outRows, width, baseWidth float64) float64 {
	switch op {
	case PhysRowScan:
		// Row stores read the full base row width but stitch no columns.
		if baseWidth == 0 {
			baseWidth = width
		}
		return outRows*costCPUPerRow*0.6 + outRows*baseWidth*costIOPerByte
	case PhysColumnScan:
		return outRows*costCPUPerRow + outRows*width*costIOPerByte*0.7
	default: // PhysIndexSeek
		return outRows*costCPUPerRow + outRows*width*costIOPerByte*costSeekReduction
	}
}

// nodeCost returns the estimated cost of one physical operator given its
// (estimated) input and output cardinalities.
func nodeCost(n *PhysNode, inRows []float64, outRows float64) float64 {
	width := float64(n.RowWidth)
	totalIn := 0.0
	for _, r := range inRows {
		totalIn += r
	}
	switch n.Op {
	case PhysRowScan, PhysColumnScan, PhysIndexSeek:
		return scanCost(n.Op, outRows, width, float64(n.BaseWidth))
	case PhysFilter, PhysProject, PhysProcess:
		return totalIn * costCPUPerRow
	case PhysMergeJoin:
		return totalIn*costCPUPerRow*1.2 + outRows*costCPUPerRow*0.5
	case PhysHashJoin, PhysBroadcastJoin:
		build := 0.0
		if len(inRows) == 2 {
			build = inRows[1] * costHashBuildRow
		}
		return totalIn*costCPUPerRow + build + outRows*costCPUPerRow*0.5
	case PhysNestedLoopJoin:
		if len(inRows) == 2 {
			return inRows[0]*inRows[1]*costNLJPerRowPair + outRows*costCPUPerRow
		}
		return totalIn * costCPUPerRow
	case PhysHashAgg:
		return totalIn*costCPUPerRow*1.5 + outRows*costCPUPerRow
	case PhysStreamAgg:
		// Stream aggregation sorts its input first: cheap for small
		// groups-in, expensive at scale.
		return totalIn*costCPUPerRow*(0.6+0.055*math.Log2(math.Max(totalIn, 2))) + outRows*costCPUPerRow*0.5
	case PhysSort, PhysTopNSort:
		return totalIn * costSortRowLog * math.Log2(math.Max(totalIn, 2))
	case PhysTopNHeap:
		return totalIn * costCPUPerRow * 1.2
	case PhysConcatUnion:
		return totalIn * costCPUPerRow * 0.2
	case PhysSortedUnion:
		return totalIn * costCPUPerRow * 0.6
	case PhysExchange:
		bytes := totalIn * width
		per := costExchangePerB
		cpu := totalIn * costCPUPerRow * 0.3
		if n.Exchange == ExchangeBroadcast {
			per = costBroadcastPerB * float64(max(n.Partitions, 1))
		}
		if n.Compress {
			// Compression trades bytes moved for CPU: worthwhile for wide
			// rows, harmful for narrow ones.
			per *= 0.6
			cpu = totalIn * costCPUPerRow * 0.9
		}
		return bytes*per + cpu
	case PhysReduce:
		return totalIn*costCPUPerRow*2 + outRows*costCPUPerRow
	case PhysOutput:
		return totalIn * width * costIOPerByte
	default:
		return totalIn * costCPUPerRow
	}
}

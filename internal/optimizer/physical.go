// Package optimizer implements a cascades-style rule-driven query
// optimizer over the scope logical DAG, reproducing the steering surface
// of the SCOPE optimizer described in the QO-Advisor paper: a 256-rule
// catalog whose configuration can be amended per job via hints, a rule
// signature recording which rules fired, estimated-cost output, and a
// distributed physical plan (exchanges, stages, degree of parallelism)
// consumed by the execution simulator.
package optimizer

import (
	"fmt"
	"strings"

	"qoadvisor/internal/scope"
)

// PhysOp enumerates physical operator kinds.
type PhysOp int

const (
	PhysRowScan PhysOp = iota
	PhysColumnScan
	PhysIndexSeek
	PhysFilter
	PhysProject
	PhysHashJoin
	PhysMergeJoin
	PhysBroadcastJoin
	PhysNestedLoopJoin
	PhysHashAgg
	PhysStreamAgg
	PhysSort
	PhysTopNHeap
	PhysTopNSort
	PhysConcatUnion
	PhysSortedUnion
	PhysExchange
	PhysReduce
	PhysProcess
	PhysOutput
)

var physOpNames = [...]string{
	"RowScan", "ColumnScan", "IndexSeek", "Filter", "Project",
	"HashJoin", "MergeJoin", "BroadcastJoin", "NestedLoopJoin",
	"HashAgg", "StreamAgg", "Sort", "TopNHeap", "TopNSort",
	"ConcatUnion", "SortedUnion", "Exchange", "Reduce", "Process", "Output",
}

func (op PhysOp) String() string {
	if int(op) < len(physOpNames) {
		return physOpNames[op]
	}
	return fmt.Sprintf("phys(%d)", int(op))
}

// ExchangeKind describes how an Exchange redistributes rows. The zero
// value is no exchange.
type ExchangeKind int

const (
	ExchangeHash ExchangeKind = iota + 1
	ExchangeRange
	ExchangeBroadcast
	ExchangeGather // merge all partitions into one
	ExchangeRoundRobin
)

var exchangeKindNames = [...]string{"none", "hash", "range", "broadcast", "gather", "roundrobin"}

func (k ExchangeKind) String() string {
	if int(k) < len(exchangeKindNames) {
		return exchangeKindNames[k]
	}
	return fmt.Sprintf("exchange(%d)", int(k))
}

// PhysNode is a physical plan operator. The physical plan mirrors the
// logical DAG with implementation choices made and exchange operators
// inserted at repartitioning boundaries.
type PhysNode struct {
	ID      int
	Op      PhysOp
	Inputs  []*PhysNode
	Logical *scope.Node // originating logical node; nil for exchanges

	// Exchange-specific fields.
	Exchange ExchangeKind
	Compress bool // tuning: compress exchange payloads
	Fused    bool // tuning: exchange removed by stage fusion (pass-through)

	// PartScheme describes the node's output partitioning, e.g.
	// "rr", "hash:uid", "range:ts", "bcast", "single". Exchanges are
	// skipped when the input already carries the required scheme.
	PartScheme string

	// BaseWidth is the unpruned input row width for scans, used to model
	// row-store reads that cannot skip columns.
	BaseWidth int64

	// GateHint pins an exchange's tuning-rule gate to the operator site
	// that created it, so tuning rules match the same exchanges across
	// different rule configurations.
	GateHint uint64

	// Cardinality and sizing (estimated values; the execution simulator
	// recomputes true values through the same engine).
	EstRows  float64
	RowWidth int64

	// Partitions is the degree of parallelism of the operator's stage.
	Partitions int

	// StageID groups pipelined operators into stages; exchanges end
	// stages. Assigned by the stage-assignment phase.
	StageID int

	// PackFactor is a tuning multiplier for rows-per-vertex packing.
	PackFactor float64
}

// IsExchange reports whether the node is an exchange operator.
func (n *PhysNode) IsExchange() bool { return n.Op == PhysExchange }

// Label renders a one-line description for plan dumps.
func (n *PhysNode) Label() string {
	if n.IsExchange() {
		return fmt.Sprintf("Exchange[%s x%d]", n.Exchange, n.Partitions)
	}
	base := n.Op.String()
	if n.Logical != nil {
		base += "{" + n.Logical.Label() + "}"
	}
	return fmt.Sprintf("%s x%d rows=%.0f", base, n.Partitions, n.EstRows)
}

// Stage is a set of pipelined physical operators executed with a common
// degree of parallelism. Stage boundaries are exchanges and outputs.
type Stage struct {
	ID         int
	Nodes      []*PhysNode
	InputIDs   []int // upstream stage IDs
	Partitions int
}

// Plan is a complete physical plan.
type Plan struct {
	Roots  []*PhysNode
	Stages []Stage

	// EstCost is the optimizer's estimated cost of the whole plan, the
	// quantity QO-Advisor's contextual bandit learns over.
	EstCost float64

	// EstVertices is the estimated total vertex count (sum over stages of
	// their parallelism).
	EstVertices int

	nextID int
	// order is the topological order, recorded when the builder publishes
	// the plan.
	order []*PhysNode
}

// IDBound returns an exclusive upper bound on the IDs of the plan's
// nodes: every node of p has 0 <= ID < IDBound(), so a slice of that
// length indexed by PhysNode.ID covers the plan.
func (p *Plan) IDBound() int { return p.nextID }

// Nodes returns all physical nodes in deterministic topological order
// (inputs first). The slice is computed once, when the plan is published,
// and shared by every caller: read-only.
func (p *Plan) Nodes() []*PhysNode { return p.order }

// appendPhysSubtree appends to dst n's subtree, inputs first, skipping
// the nodes seen marks and marking the rest.
func appendPhysSubtree(dst []*PhysNode, seen []bool, n *PhysNode) []*PhysNode {
	if seen[n.ID] {
		return dst
	}
	seen[n.ID] = true
	for _, in := range n.Inputs {
		dst = appendPhysSubtree(dst, seen, in)
	}
	return append(dst, n)
}

// String renders the plan as indented trees, one per root.
func (p *Plan) String() string {
	var sb strings.Builder
	printed := make(map[*PhysNode]bool)
	var dump func(n *PhysNode, depth int)
	dump = func(n *PhysNode, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		if printed[n] {
			fmt.Fprintf(&sb, "#%d (shared)\n", n.ID)
			return
		}
		printed[n] = true
		fmt.Fprintf(&sb, "#%d s%d %s\n", n.ID, n.StageID, n.Label())
		for _, in := range n.Inputs {
			dump(in, depth+1)
		}
	}
	for i, r := range p.Roots {
		fmt.Fprintf(&sb, "root %d (cost %.3g):\n", i, p.EstCost)
		dump(r, 1)
	}
	return sb.String()
}

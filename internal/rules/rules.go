// Package rules defines the optimizer rule catalog that QO-Advisor steers.
//
// The SCOPE optimizer described in the paper has 256 rules split into four
// categories: required (must always be enabled to get valid plans),
// on-by-default, off-by-default (experimental or very sensitive to
// estimates), and implementation rules (mapping logical operators into
// physical ones). A rule configuration is a 256-bit vector of enabled
// rules; a rule signature is a 256-bit vector of the rules that directly
// contributed to a plan. This package provides the catalog, the bit-vector
// types, and the single-rule Flip that is QO-Advisor's steering action.
package rules

import (
	"fmt"
	"math/bits"
	"strings"
)

// NumRules is the size of the rule catalog, matching the paper's SCOPE
// optimizer ("There are 256 rules in the SCOPE optimizer").
const NumRules = 256

// Category classifies a rule the way §2.1 of the paper does.
type Category int

const (
	// Required rules must always be enabled to obtain valid plans.
	Required Category = iota
	// OnByDefault rules are regular exploration rules enabled by default.
	OnByDefault
	// OffByDefault rules are experimental or sensitive to estimates and
	// disabled by default.
	OffByDefault
	// Implementation rules map logical operators into physical ones.
	Implementation
)

// String returns the category name used in logs and hint files.
func (c Category) String() string {
	switch c {
	case Required:
		return "required"
	case OnByDefault:
		return "on-by-default"
	case OffByDefault:
		return "off-by-default"
	case Implementation:
		return "implementation"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Kind identifies the optimizer behaviour a rule controls. The optimizer
// package dispatches on Kind; Variant distinguishes sibling rules of the
// same kind (for example, tuning rules that fire on different plan
// fingerprints).
type Kind int

const (
	// Required / normalization kinds.
	KindResolveColumns Kind = iota
	KindNormalizePredicates
	KindConstantFolding
	KindEnforceOutput
	KindEnforceExchange
	KindAssignStages

	// Logical rewrite kinds.
	KindPushFilterBelowJoin
	KindPushFilterBelowProject
	KindPushFilterBelowUnion
	KindPushFilterBelowAgg
	KindPushFilterIntoScan
	KindMergeFilters
	KindMergeProjects
	KindPruneColumns
	KindJoinCommute
	KindJoinAssociate
	KindLocalGlobalAgg
	KindPartialAggBelowJoin
	KindPartialAggBelowUnion
	KindDistinctToAgg
	KindEliminateDistinctOnKey
	KindRemoveRedundantSort
	KindTopNPushdown
	KindSemiJoinReduction
	KindFlattenUnion
	KindProjectPullUp
	KindSplitComplexFilter
	KindBroadcastAnnotation
	KindUnionDedupPushdown
	KindJoinPredicateInference

	// Implementation kinds.
	KindImplHashJoin
	KindImplMergeJoin
	KindImplBroadcastJoin
	KindImplNestedLoopJoin
	KindImplHashAgg
	KindImplStreamAgg
	KindImplHashPartition
	KindImplRangePartition
	KindImplRoundRobin
	KindImplConcatUnion
	KindImplSortedUnion
	KindImplRowScan
	KindImplColumnScan
	KindImplExternalSort
	KindImplTopNHeap
	KindImplIndexSeek

	// Tuning kinds: parameterized variants that adjust physical properties
	// for plan fragments whose fingerprint matches the rule's variant.
	KindTunePartitionCount
	KindTuneStageFusion
	KindTuneVertexPacking
	KindTuneExchangeCompression
	KindTuneSortBuffer
	KindTuneBroadcastThreshold

	numKinds // sentinel, keep last
)

var kindNames = map[Kind]string{
	KindResolveColumns:          "ResolveColumns",
	KindNormalizePredicates:     "NormalizePredicates",
	KindConstantFolding:         "ConstantFolding",
	KindEnforceOutput:           "EnforceOutput",
	KindEnforceExchange:         "EnforceExchange",
	KindAssignStages:            "AssignStages",
	KindPushFilterBelowJoin:     "PushFilterBelowJoin",
	KindPushFilterBelowProject:  "PushFilterBelowProject",
	KindPushFilterBelowUnion:    "PushFilterBelowUnion",
	KindPushFilterBelowAgg:      "PushFilterBelowAgg",
	KindPushFilterIntoScan:      "PushFilterIntoScan",
	KindMergeFilters:            "MergeFilters",
	KindMergeProjects:           "MergeProjects",
	KindPruneColumns:            "PruneColumns",
	KindJoinCommute:             "JoinCommute",
	KindJoinAssociate:           "JoinAssociate",
	KindLocalGlobalAgg:          "LocalGlobalAgg",
	KindPartialAggBelowJoin:     "PartialAggBelowJoin",
	KindPartialAggBelowUnion:    "PartialAggBelowUnion",
	KindDistinctToAgg:           "DistinctToAgg",
	KindEliminateDistinctOnKey:  "EliminateDistinctOnKey",
	KindRemoveRedundantSort:     "RemoveRedundantSort",
	KindTopNPushdown:            "TopNPushdown",
	KindSemiJoinReduction:       "SemiJoinReduction",
	KindFlattenUnion:            "FlattenUnion",
	KindProjectPullUp:           "ProjectPullUp",
	KindSplitComplexFilter:      "SplitComplexFilter",
	KindBroadcastAnnotation:     "BroadcastAnnotation",
	KindUnionDedupPushdown:      "UnionDedupPushdown",
	KindJoinPredicateInference:  "JoinPredicateInference",
	KindImplHashJoin:            "ImplHashJoin",
	KindImplMergeJoin:           "ImplMergeJoin",
	KindImplBroadcastJoin:       "ImplBroadcastJoin",
	KindImplNestedLoopJoin:      "ImplNestedLoopJoin",
	KindImplHashAgg:             "ImplHashAgg",
	KindImplStreamAgg:           "ImplStreamAgg",
	KindImplHashPartition:       "ImplHashPartition",
	KindImplRangePartition:      "ImplRangePartition",
	KindImplRoundRobin:          "ImplRoundRobin",
	KindImplConcatUnion:         "ImplConcatUnion",
	KindImplSortedUnion:         "ImplSortedUnion",
	KindImplRowScan:             "ImplRowScan",
	KindImplColumnScan:          "ImplColumnScan",
	KindImplExternalSort:        "ImplExternalSort",
	KindImplTopNHeap:            "ImplTopNHeap",
	KindImplIndexSeek:           "ImplIndexSeek",
	KindTunePartitionCount:      "TunePartitionCount",
	KindTuneStageFusion:         "TuneStageFusion",
	KindTuneVertexPacking:       "TuneVertexPacking",
	KindTuneExchangeCompression: "TuneExchangeCompression",
	KindTuneSortBuffer:          "TuneSortBuffer",
	KindTuneBroadcastThreshold:  "TuneBroadcastThreshold",
}

// String returns the kind's canonical name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Rule is a single optimizer rule. ID is its bit position in configurations
// and signatures.
type Rule struct {
	ID       int
	Name     string
	Category Category
	Kind     Kind
	// Variant distinguishes sibling rules of the same Kind. For tuning
	// kinds it selects the plan-fragment fingerprint residue the rule
	// fires on and the magnitude of its adjustment.
	Variant int
}

// Flip is QO-Advisor's steering action: turn exactly one rule on or off
// relative to the default configuration.
type Flip struct {
	RuleID int
	Enable bool // true = turn the rule on, false = turn it off
}

// String renders the flip the way hint files do, e.g. "+R123" or "-R007".
// Every decision served carries one, so catalog flips read a table.
func (f Flip) String() string {
	if f.RuleID >= 0 && f.RuleID < NumRules {
		if f.Enable {
			return flipNames[2*f.RuleID+1]
		}
		return flipNames[2*f.RuleID]
	}
	return f.format()
}

func (f Flip) format() string {
	sign := "-"
	if f.Enable {
		sign = "+"
	}
	return fmt.Sprintf("%sR%03d", sign, f.RuleID)
}

// flipNames holds the text of rule i's off flip at 2i and of its on flip
// at 2i+1.
var flipNames = func() (names [2 * NumRules]string) {
	for id := 0; id < NumRules; id++ {
		names[2*id] = Flip{RuleID: id}.format()
		names[2*id+1] = Flip{RuleID: id, Enable: true}.format()
	}
	return names
}()

// ParseFlip parses the textual form produced by Flip.String: a sign, 'R'
// and one to three ASCII digits, nothing else. Hint files and journaled
// hint records are validated by it, so it must not read "+R12abc" as
// rule 12. An error quotes a copy of s, so s does not escape and a
// caller parsing out of a byte buffer converts without allocating.
func ParseFlip(s string) (Flip, error) {
	if len(s) < 3 || len(s) > 5 || (s[0] != '+' && s[0] != '-') || s[1] != 'R' {
		return Flip{}, fmt.Errorf("rules: malformed flip %q", strings.Clone(s))
	}
	id := 0
	for _, c := range []byte(s[2:]) {
		if c < '0' || c > '9' {
			return Flip{}, fmt.Errorf("rules: malformed flip %q", strings.Clone(s))
		}
		id = id*10 + int(c-'0')
	}
	if id >= NumRules {
		return Flip{}, fmt.Errorf("rules: flip rule id %d out of range", id)
	}
	return Flip{RuleID: id, Enable: s[0] == '+'}, nil
}

// Catalog is an immutable collection of rules indexed by ID, kind and
// category. Every slice it hands out (All, OfKind, Rules) is built once
// in NewCatalog and shared by all callers, on every goroutine: read-only.
type Catalog struct {
	rules  []Rule
	byKind [numKinds][]Rule
	byCat  [Implementation + 1][]Rule
}

// NewCatalog builds the canonical 256-rule catalog. The layout is
// deterministic: required normalization rules first, then logical rewrites
// (on-by-default), then experimental variants (off-by-default), then
// implementation rules, then tuning variants filling the remaining IDs.
func NewCatalog() *Catalog {
	c := &Catalog{}

	add := func(name string, cat Category, kind Kind, variant int) {
		id := len(c.rules)
		if id >= NumRules {
			panic("rules: catalog overflow")
		}
		c.rules = append(c.rules, Rule{ID: id, Name: name, Category: cat, Kind: kind, Variant: variant})
	}

	// --- Required normalization rules (IDs 0-11). ---
	required := []Kind{
		KindResolveColumns, KindNormalizePredicates, KindConstantFolding,
		KindEnforceOutput, KindEnforceExchange, KindAssignStages,
	}
	for _, k := range required {
		add(k.String(), Required, k, 0)
		add(k.String()+"Ex", Required, k, 1)
	}

	// --- On-by-default logical rewrites. ---
	onKinds := []Kind{
		KindPushFilterBelowJoin, KindPushFilterBelowProject,
		KindPushFilterBelowUnion, KindPushFilterIntoScan,
		KindMergeFilters, KindMergeProjects, KindPruneColumns,
		KindJoinCommute, KindLocalGlobalAgg, KindDistinctToAgg,
		KindRemoveRedundantSort, KindTopNPushdown, KindFlattenUnion,
		KindSplitComplexFilter,
	}
	for _, k := range onKinds {
		for v := 0; v < 3; v++ {
			add(fmt.Sprintf("%s_v%d", k, v), OnByDefault, k, v)
		}
	}

	// --- Off-by-default experimental rewrites. ---
	offKinds := []Kind{
		KindPushFilterBelowAgg, KindJoinAssociate, KindPartialAggBelowJoin,
		KindPartialAggBelowUnion, KindEliminateDistinctOnKey,
		KindSemiJoinReduction, KindProjectPullUp, KindBroadcastAnnotation,
		KindUnionDedupPushdown, KindJoinPredicateInference,
	}
	for _, k := range offKinds {
		for v := 0; v < 3; v++ {
			add(fmt.Sprintf("%s_x%d", k, v), OffByDefault, k, v)
		}
	}

	// --- Implementation rules. ---
	implKinds := []Kind{
		KindImplHashJoin, KindImplMergeJoin, KindImplBroadcastJoin,
		KindImplNestedLoopJoin, KindImplHashAgg, KindImplStreamAgg,
		KindImplHashPartition, KindImplRangePartition, KindImplRoundRobin,
		KindImplConcatUnion, KindImplSortedUnion, KindImplRowScan,
		KindImplColumnScan, KindImplExternalSort, KindImplTopNHeap,
		KindImplIndexSeek,
	}
	for _, k := range implKinds {
		for v := 0; v < 2; v++ {
			add(fmt.Sprintf("%s_p%d", k, v), Implementation, k, v)
		}
	}

	// --- Tuning variants fill the remaining IDs. ---
	// Alternate between on-by-default and off-by-default so that both flip
	// directions occur in job spans, as in the production catalog.
	tuneKinds := []Kind{
		KindTunePartitionCount, KindTuneStageFusion, KindTuneVertexPacking,
		KindTuneExchangeCompression, KindTuneSortBuffer,
		KindTuneBroadcastThreshold,
	}
	variant := 0
	for len(c.rules) < NumRules {
		k := tuneKinds[variant%len(tuneKinds)]
		cat := OnByDefault
		if variant%3 == 1 {
			cat = OffByDefault
		}
		add(fmt.Sprintf("%s_t%02d", k, variant), cat, k, variant)
		variant++
	}

	if len(c.rules) != NumRules {
		panic("rules: catalog must contain exactly 256 rules")
	}
	for _, r := range c.rules {
		c.byKind[r.Kind] = append(c.byKind[r.Kind], r)
		c.byCat[r.Category] = append(c.byCat[r.Category], r)
	}
	return c
}

// Rule returns the rule with the given ID. It panics on out-of-range IDs,
// which always indicate a programming error.
func (c *Catalog) Rule(id int) Rule {
	return c.rules[id]
}

// Rules returns all rules in the given category, in ID order. The returned
// slice is shared; callers must not modify it.
func (c *Catalog) Rules(cat Category) []Rule {
	if cat < 0 || int(cat) >= len(c.byCat) {
		return nil
	}
	return c.byCat[cat]
}

// OfKind returns the sibling rules of the given kind, in ID order: the
// optimizer assigns a site with gate hash g to OfKind(k)[g % len]. The
// returned slice is shared; callers must not modify it.
func (c *Catalog) OfKind(k Kind) []Rule {
	if k < 0 || k >= numKinds {
		return nil
	}
	return c.byKind[k]
}

// All returns every rule in ID order. The returned slice is shared; callers
// must not modify it.
func (c *Catalog) All() []Rule { return c.rules }

// DefaultConfig returns the default rule configuration: required,
// on-by-default and implementation rules enabled; off-by-default disabled.
func (c *Catalog) DefaultConfig() Config {
	var cfg Config
	for _, r := range c.rules {
		if r.Category != OffByDefault {
			cfg.Set(r.ID)
		}
	}
	return cfg
}

// FlipFor returns the single-rule Flip that moves the default configuration
// toward the opposite setting for rule id: off-by-default rules are turned
// on, all others are turned off.
func (c *Catalog) FlipFor(id int) Flip {
	return Flip{RuleID: id, Enable: c.rules[id].Category == OffByDefault}
}

// Bitset is a fixed 256-bit vector. The zero value is the empty set. Bitset
// is a value type: assignment copies it.
type Bitset struct {
	w [NumRules / 64]uint64
}

// Get reports whether bit id is set.
func (b Bitset) Get(id int) bool {
	return b.w[id>>6]&(1<<(uint(id)&63)) != 0
}

// Set sets bit id.
func (b *Bitset) Set(id int) { b.w[id>>6] |= 1 << (uint(id) & 63) }

// Clear clears bit id.
func (b *Bitset) Clear(id int) { b.w[id>>6] &^= 1 << (uint(id) & 63) }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether no bits are set.
func (b Bitset) IsEmpty() bool {
	for _, w := range b.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether b and o contain the same bits.
func (b Bitset) Equal(o Bitset) bool { return b.w == o.w }

// Union returns the set union of b and o.
func (b Bitset) Union(o Bitset) Bitset {
	var out Bitset
	for i := range b.w {
		out.w[i] = b.w[i] | o.w[i]
	}
	return out
}

// Intersect returns the set intersection of b and o.
func (b Bitset) Intersect(o Bitset) Bitset {
	var out Bitset
	for i := range b.w {
		out.w[i] = b.w[i] & o.w[i]
	}
	return out
}

// Minus returns the bits set in b but not in o.
func (b Bitset) Minus(o Bitset) Bitset {
	var out Bitset
	for i := range b.w {
		out.w[i] = b.w[i] &^ o.w[i]
	}
	return out
}

// Bits returns the IDs of all set bits in ascending order.
func (b Bitset) Bits() []int {
	return b.AppendBits(make([]int, 0, b.Count()))
}

// AppendBits appends the IDs of all set bits to dst in ascending order
// and returns the extended slice. It allocates only if dst must grow, so
// a caller with a stack buffer of NumRules ints walks a span for free.
func (b Bitset) AppendBits(dst []int) []int {
	for i, w := range b.w {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6|bits.TrailingZeros64(w))
		}
	}
	return dst
}

// String renders the bitset as a 64-hex-digit string, most significant
// word first, matching the "rule signature" dumps in SCOPE job logs.
func (b Bitset) String() string {
	var sb strings.Builder
	for i := len(b.w) - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "%016x", b.w[i])
	}
	return sb.String()
}

// Config is a rule configuration: the set of enabled rules handed to the
// optimizer at compile time. It is a value type.
type Config struct {
	Bitset
}

// Enabled reports whether rule id is enabled.
func (c Config) Enabled(id int) bool { return c.Get(id) }

// WithFlip returns a copy of c with the given flip applied.
func (c Config) WithFlip(f Flip) Config {
	out := c
	if f.Enable {
		out.Set(f.RuleID)
	} else {
		out.Clear(f.RuleID)
	}
	return out
}

// Signature records the rules that directly contributed to a plan, i.e.
// the rules that fired during optimization ("if only the first and second
// rule were used, the rule signature will be 1100000000...").
type Signature struct {
	Bitset
}

// Fired reports whether rule id fired.
func (s Signature) Fired(id int) bool { return s.Get(id) }

// Record marks rule id as fired.
func (s *Signature) Record(id int) { s.Set(id) }

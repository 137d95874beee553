package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// RewardClip caps the estimated-cost-ratio reward: "we clip any plan that
// is more than 2x the baseline" (§4.2).
const RewardClip = 2.0

// Recommendation is the output of the Recommendation + Recompilation
// tasks for one job.
type Recommendation struct {
	Features *JobFeatures
	// Flip is the selected action; NoOp is true when the model chose to
	// change nothing.
	Flip rules.Flip
	NoOp bool
	// TreatCost is the estimated cost of the flipped configuration, set
	// whenever the flip compiled.
	TreatCost float64
	// Recompiled is the treatment compilation result, the plan a flight
	// can run. It is set only for a flip that improves the estimated cost
	// (CostDelta < 0), the only ones Improved hands on; it is nil on NoOp,
	// on a compile failure and for a flip that does not improve the cost,
	// which Recommend estimates without building a plan.
	Recompiled *optimizer.Result
	// CompileFailed marks flips that failed recompilation.
	CompileFailed bool
	// CostDelta is newCost/oldCost - 1 (negative is an improvement).
	CostDelta float64
	// Reward is the clipped cost-ratio reward fed back to the learner.
	Reward float64
}

// Recommender proposes at most one rule flip per job. Implementations:
// the contextual-bandit recommender and the uniform-random baseline.
type Recommender interface {
	// Recommend picks an action for the job.
	Recommend(f *JobFeatures) (flip rules.Flip, noop bool, eventID string)
	// Learn feeds back the observed reward for a previous Recommend.
	Learn(eventID string, reward float64)
	// Forget drops a previous Recommend no reward will close: its flip
	// failed recompilation.
	Forget(eventID string)
}

// --- Featurization (internal/featurize holds the feature contract) ---

// ContextFeatures is featurize.Context for a featurized job.
func ContextFeatures(f *JobFeatures) bandit.Context {
	return featurize.Context(f.Span, f.RowCount, f.BytesRead)
}

// ActionsFor is featurize.Actions for a featurized job, with the flip
// each action stands for (the zero Flip beside the no-op).
func ActionsFor(cat *rules.Catalog, f *JobFeatures) ([]bandit.Action, []rules.Flip) {
	actions := featurize.Actions(cat, f.Span)
	flips := make([]rules.Flip, 1, len(actions))
	var buf [rules.NumRules]int
	for _, b := range f.Span.AppendBits(buf[:0]) {
		flips = append(flips, cat.FlipFor(b))
	}
	return actions, flips
}

// --- Contextual-bandit recommender ---

// CBRecommender selects flips with the bandit service (Azure
// Personalizer stand-in). It is not for concurrent use: Recommend
// featurizes into the recommender's own buffers, and its callers —
// Recommend's first phase and the experiments — call it in sequence.
type CBRecommender struct {
	Catalog *rules.Catalog
	Service *bandit.Service
	// Uniform switches to the uniform-at-random logging policy used for
	// off-policy data collection.
	Uniform bool

	// ids and actions are what Recommend featurizes a job into. The
	// bandit copies what it logs, so they are free again once the rank
	// returns.
	ids     []uint64
	actions []bandit.Action
}

// NewCBRecommender builds a CB recommender with its own bandit service.
func NewCBRecommender(cat *rules.Catalog, seed int64) *CBRecommender {
	return &CBRecommender{Catalog: cat, Service: bandit.New(bandit.DefaultConfig(seed))}
}

// Recommend implements Recommender. It featurizes the job into the
// recommender's buffers, as the serving path does into pooled scratch.
func (c *CBRecommender) Recommend(f *JobFeatures) (rules.Flip, bool, string) {
	c.ids = featurize.AppendContext(c.ids[:0], f.Span, f.RowCount, f.BytesRead)
	ctx := bandit.Context{IDs: c.ids}
	c.actions = featurize.AppendActions(c.actions[:0], c.Catalog, f.Span)
	actions := c.actions
	var ranked bandit.Ranked
	var err error
	if c.Uniform {
		ranked, err = c.Service.RankUniform(ctx, actions)
	} else {
		ranked, err = c.Service.Rank(ctx, actions)
	}
	if err != nil {
		return rules.Flip{}, true, ""
	}
	if ranked.Chosen == 0 {
		return rules.Flip{}, true, ranked.EventID
	}
	var buf [rules.NumRules]int
	rule := f.Span.AppendBits(buf[:0])[ranked.Chosen-1]
	return c.Catalog.FlipFor(rule), false, ranked.EventID
}

// Learn implements Recommender.
func (c *CBRecommender) Learn(eventID string, reward float64) {
	if eventID == "" {
		return
	}
	_ = c.Service.Reward(eventID, reward)
}

// Forget implements Recommender: the learner drops the open rank event,
// which would otherwise stay in its log for good.
func (c *CBRecommender) Forget(eventID string) {
	if eventID != "" {
		c.Service.Forget(eventID)
	}
}

// Train triggers an off-policy training pass over rewarded events.
func (c *CBRecommender) Train() int { return c.Service.Train() }

// --- Uniform-random baseline (Table 3's comparator) ---

// RandomRecommender flips one rule chosen uniformly at random from the
// span — the baseline of §5.6.
type RandomRecommender struct {
	Catalog *rules.Catalog
	rng     *rand.Rand
}

// NewRandomRecommender builds the baseline recommender.
func NewRandomRecommender(cat *rules.Catalog, seed int64) *RandomRecommender {
	return &RandomRecommender{Catalog: cat, rng: rand.New(rand.NewSource(seed))}
}

// Recommend implements Recommender.
func (r *RandomRecommender) Recommend(f *JobFeatures) (rules.Flip, bool, string) {
	bits := f.Span.Bits()
	if len(bits) == 0 {
		return rules.Flip{}, true, ""
	}
	id := bits[r.rng.Intn(len(bits))]
	return r.Catalog.FlipFor(id), false, ""
}

// Learn implements Recommender (the baseline does not learn).
func (r *RandomRecommender) Learn(string, float64) {}

// Forget implements Recommender (the baseline logs nothing).
func (r *RandomRecommender) Forget(string) {}

// --- Recommendation + Recompilation tasks ---

// RecommendOptions has no fields: it is kept only because cmd/qobench
// calls RecommendWith with its zero value.
type RecommendOptions struct{}

// RecommendWith forwards to Recommend; it is kept only for cmd/qobench.
func RecommendWith(rec Recommender, cat *rules.Catalog, feats []*JobFeatures, _ RecommendOptions) []*Recommendation {
	return Recommend(rec, cat, feats)
}

// recompileKey is what a recompilation is a function of: the job
// instance and the flip.
type recompileKey struct {
	graph *scope.Graph
	flip  rules.Flip
}

// recompileKeys returns the recompileKey of recs[i] by index.
func recompileKeys(recs []*Recommendation) func(i int) recompileKey {
	return func(i int) recompileKey { return recompileKey{recs[i].Features.Job.Graph, recs[i].Flip} }
}

// Recommend runs the Recommendation and Recompilation tasks for a set of
// featurized jobs: pick an action per job, recompile under the flip,
// compute the clipped cost-ratio reward, and feed it back to the learner.
// Jobs whose flip does not improve the estimated cost are kept in the
// output (with their deltas) so callers can prune and count them. The
// task is split into three phases so recompilation — the expensive, pure
// part — can fan out across a worker pool without perturbing the learner:
//
//  1. rank every job sequentially (the recommender's exploration RNG and
//     event log consume randomness in job order, exactly as before),
//  2. recompile the chosen flips in parallel, once per (instance, flip)
//     (a compilation is a pure function of (graph, config, stats), and a
//     day's recurrences of an instance share all three): every key is
//     estimated (optimizer.Estimate, no plan), and only a key whose flip
//     improves the cost is compiled again into a plan (optimizer.Optimize,
//     a hit in the instance's rewrite memo),
//  3. feed rewards back sequentially in job order (training order — and
//     hence the learned weights — match the sequential pipeline bit for
//     bit), and have the learner forget the rank of every flip whose
//     recompilation failed: no reward will close it.
//
// Phase 1 ranks the whole day before phase 3 rewards any of it, so the
// learner's event log must hold a day: a capped log would evict the
// earliest ranks before their rewards arrive. NewCBRecommender's learner
// is uncapped, and the serve layer caps a trained learner only after the
// pipeline has returned. Once the caller trains, the day leaves the
// learner holding no open event: Train releases what phase 3 rewarded,
// and phase 3 forgot the rest. The Recommendations it returns lie in one
// slab, so keeping one keeps the call's.
func Recommend(rec Recommender, cat *rules.Catalog, feats []*JobFeatures) []*Recommendation {
	out := make([]*Recommendation, len(feats))
	slab := make([]Recommendation, len(feats)) // out[i] is &slab[i]
	eventIDs := make([]string, len(feats))

	// Phase 1: sequential ranks.
	for i, f := range feats {
		r := &slab[i]
		r.Features = f
		r.Flip, r.NoOp, eventIDs[i] = rec.Recommend(f)
		out[i] = r
	}

	// Phase 2: parallel recompilation of the non-noop flips, once per
	// (instance, flip): every job of an instance that drew the same flip
	// shares the one estimate, and the one plan if its flip improves.
	todo := make([]*Recommendation, 0, len(out))
	for _, r := range out {
		if !r.NoOp {
			todo = append(todo, r)
		}
	}
	type estimate struct {
		cost float64
		ok   bool
	}
	ests := shareBy(len(todo), recompileKeys(todo), func(i int) estimate {
		job := todo[i].Features.Job
		_, cost, err := optimizer.Estimate(job.Graph, cat.DefaultConfig().WithFlip(todo[i].Flip), job.CompileOptions(cat))
		return estimate{cost, err == nil}
	})
	improving := todo[:0] // todo[i] is read before improving grows past i
	for i, r := range todo {
		cost := ests[i].cost
		if !ests[i].ok {
			// A failed recompilation produces no cost estimate and hence
			// no reward; phase 3 forgets the rank event, so training
			// never sees it (which is why the learned policy only
			// slightly reduces failures relative to random, as in
			// Table 3).
			r.CompileFailed = true
			r.Reward = 0
			r.CostDelta = math.Inf(1)
			continue
		}
		f := r.Features
		r.TreatCost = cost
		r.CostDelta = cost/f.EstCost - 1
		// Reward: ratio of default estimated cost over the recompiled
		// cost, clipped so outliers do not skew the model.
		r.Reward = min(f.EstCost/cost, RewardClip)
		if r.CostDelta < 0 {
			improving = append(improving, r)
		}
	}
	// The improving flips' plans: the same compilations, which compiled
	// above, so none fails.
	plans := shareBy(len(improving), recompileKeys(improving), func(i int) *optimizer.Result {
		job := improving[i].Features.Job
		res, _ := optimizer.Optimize(job.Graph, cat.DefaultConfig().WithFlip(improving[i].Flip), job.CompileOptions(cat))
		return res
	})
	for i, r := range improving {
		r.Recompiled = plans[i]
	}

	// Phase 3: sequential reward feedback in job order.
	for i, r := range out {
		if r.NoOp {
			r.Reward = 1 // "the reward of reject is known (relative change is 0)"
			r.CostDelta = 0
			rec.Learn(eventIDs[i], r.Reward)
			continue
		}
		if r.CompileFailed {
			rec.Forget(eventIDs[i]) // no reward will close the rank event
			continue
		}
		rec.Learn(eventIDs[i], r.Reward)
	}
	return out
}

// Improved filters recommendations down to real flips with an estimated
// cost improvement, the short-circuit before flighting.
func Improved(recs []*Recommendation) []*Recommendation {
	var out []*Recommendation
	for _, r := range recs {
		if !r.NoOp && !r.CompileFailed && r.CostDelta < 0 {
			out = append(out, r)
		}
	}
	return out
}

// RepresentativePerTemplate keeps one recommendation per job template,
// picked deterministically from the seed: "we flight one representative
// job per template (picked randomly)". The templates draw in ascending
// hash order, each among its recommendations in input order: a stable
// sort of one copy of recs by hash makes each template's a run of the
// copy, and the picks overwrite the copy's head.
func RepresentativePerTemplate(recs []*Recommendation, seed int64) []*Recommendation {
	hash := func(r *Recommendation) uint64 { return r.Features.Job.Template.Hash }
	sorted := slices.Clone(recs)
	slices.SortStableFunc(sorted, func(a, b *Recommendation) int { return cmp.Compare(hash(a), hash(b)) })
	rng := rand.New(rand.NewSource(seed))
	picked := 0
	for start := 0; start < len(sorted); {
		end := start + 1
		for end < len(sorted) && hash(sorted[end]) == hash(sorted[start]) {
			end++
		}
		sorted[picked] = sorted[start+rng.Intn(end-start)]
		picked, start = picked+1, end
	}
	return sorted[:picked:picked]
}

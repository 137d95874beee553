package core

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/featurize"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
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
	// Recompiled is the treatment compilation result (nil on NoOp or
	// compile failure).
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
// Personalizer stand-in).
type CBRecommender struct {
	Catalog *rules.Catalog
	Service *bandit.Service
	// Uniform switches to the uniform-at-random logging policy used for
	// off-policy data collection.
	Uniform bool
}

// NewCBRecommender builds a CB recommender with its own bandit service.
func NewCBRecommender(cat *rules.Catalog, seed int64) *CBRecommender {
	return &CBRecommender{Catalog: cat, Service: bandit.New(bandit.DefaultConfig(seed))}
}

// recommendScratch is what CBRecommender.Recommend featurizes a job
// into. The bandit copies what it logs, so the scratch is free again once
// the rank returns.
type recommendScratch struct {
	ids     []uint64
	actions []bandit.Action
}

var recommendScratches = sync.Pool{New: func() any { return new(recommendScratch) }}

// Recommend implements Recommender. It featurizes the job into pooled
// scratch, as the serving path does.
func (c *CBRecommender) Recommend(f *JobFeatures) (rules.Flip, bool, string) {
	sc := recommendScratches.Get().(*recommendScratch)
	defer recommendScratches.Put(sc)
	sc.ids = featurize.AppendContext(sc.ids[:0], f.Span, f.RowCount, f.BytesRead)
	ctx := bandit.Context{IDs: sc.ids}
	sc.actions = featurize.AppendActions(sc.actions[:0], c.Catalog, f.Span)
	actions := sc.actions
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
//  2. recompile the chosen flips in parallel (optimizer.Optimize is a
//     pure function of (graph, config, stats)),
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
// and phase 3 forgot the rest.
func Recommend(rec Recommender, cat *rules.Catalog, feats []*JobFeatures) []*Recommendation {
	out := make([]*Recommendation, len(feats))
	eventIDs := make([]string, len(feats))

	// Phase 1: sequential ranks.
	for i, f := range feats {
		r := &Recommendation{Features: f}
		r.Flip, r.NoOp, eventIDs[i] = rec.Recommend(f)
		out[i] = r
	}

	// Phase 2: parallel recompilation of the non-noop flips.
	recompile := func(i int) {
		r := out[i]
		f := r.Features
		cfg := cat.DefaultConfig().WithFlip(r.Flip)
		res, err := optimizer.Optimize(f.Job.Graph, cfg, f.Job.CompileOptions(cat))
		if err != nil {
			// A failed recompilation produces no cost estimate and hence
			// no reward; phase 3 forgets the rank event, so training
			// never sees it (which is why the learned policy only
			// slightly reduces failures relative to random, as in
			// Table 3).
			r.CompileFailed = true
			r.Reward = 0
			r.CostDelta = math.Inf(1)
			return
		}
		r.Recompiled = res
		r.CostDelta = res.EstCost/f.EstCost - 1
		// Reward: ratio of default estimated cost over the recompiled
		// cost, clipped so outliers do not skew the model.
		ratio := f.EstCost / res.EstCost
		if ratio > RewardClip {
			ratio = RewardClip
		}
		r.Reward = ratio
	}
	par.For(len(out), func(i int) {
		if !out[i].NoOp {
			recompile(i)
		}
	})

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
// job per template (picked randomly)".
func RepresentativePerTemplate(recs []*Recommendation, seed int64) []*Recommendation {
	byTemplate := make(map[uint64][]*Recommendation)
	var order []uint64
	for _, r := range recs {
		key := r.Features.Job.Template.Hash
		if _, ok := byTemplate[key]; !ok {
			order = append(order, key)
		}
		byTemplate[key] = append(byTemplate[key], r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Recommendation, 0, len(order))
	for _, key := range order {
		group := byTemplate[key]
		out = append(out, group[rng.Intn(len(group))])
	}
	return out
}

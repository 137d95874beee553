package core

import (
	"math/rand"

	"qoadvisor/internal/flighting"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// Config parameterizes the Advisor pipeline.
type Config struct {
	Seed int64
	// MinValidationSamples gates hint generation until the validation
	// model has gathered enough flighting observations (the paper
	// gathers 14 days of flighting results before trusting the model,
	// §4.3; default 20).
	MinValidationSamples int
	// Flighting configures the pre-production A/B service.
	Flighting flighting.Config
}

// explorationFlightsPerDay is the number of random (job, span-flip)
// pairs flighted each day purely to grow the validation model's training
// set ("we flight a random subset of the jobs over a period of 14 days to
// gather a data set of flighting results", §4.3).
const explorationFlightsPerDay = 8

// DayReport summarizes one daily pipeline run.
type DayReport struct {
	Date int

	JobsInView      int
	JobsWithSpan    int
	Recommendations int
	NoOps           int

	// Recompilation outcome counts (Table 3's categories).
	LowerCost    int
	EqualCost    int
	HigherCost   int
	CompileFails int

	FlightsRequested int
	FlightOutcomes   map[flighting.Outcome]int

	ValidationSamples int
	ValidatorTrained  bool
	Validated         int
	HintsUploaded     int
}

// Advisor is the daily QO-Advisor pipeline: Feature Generation →
// Recommendation (contextual bandit) → Recompilation → Flighting →
// Validation → Hint Generation → SIS upload.
type Advisor struct {
	Catalog    *rules.Catalog
	FeatureGen *FeatureGen
	CB         *CBRecommender
	Flight     *flighting.Service
	Validator  *Validator
	Store      *sis.Store

	cfg Config
}

// NewAdvisor assembles a pipeline around a shared catalog and SIS store.
func NewAdvisor(cat *rules.Catalog, store *sis.Store, cfg Config) *Advisor {
	if cat == nil {
		cat = rules.NewCatalog()
	}
	if store == nil {
		store = sis.NewStore(cat)
	}
	if cfg.MinValidationSamples == 0 {
		cfg.MinValidationSamples = 20
	}
	if cfg.Flighting.Catalog == nil {
		cfg.Flighting.Catalog = cat
	}
	return &Advisor{
		Catalog:    cat,
		FeatureGen: NewFeatureGen(cat),
		CB:         NewCBRecommender(cat, cfg.Seed),
		Flight:     flighting.New(cfg.Flighting),
		Validator:  new(Validator),
		Store:      store,
		cfg:        cfg,
	}
}

// CompileCacheStats reports how often the process's compilations found
// their job instance's rewrite already memoized — production's and every
// pipeline's alike, since an instance's memo serves them all.
func (a *Advisor) CompileCacheStats() optimizer.CompileCacheStats {
	return optimizer.CompileCacheTotals()
}

// RunDay executes the full pipeline over one day's workload view and
// uploads the validated hints to SIS.
func (a *Advisor) RunDay(date int, jobs []*workload.Job, view []workload.ViewRow) (*DayReport, error) {
	rep := &DayReport{Date: date, FlightOutcomes: make(map[flighting.Outcome]int)}
	seen := make(map[string]bool)
	for _, r := range view {
		if !seen[r.JobID] {
			seen[r.JobID] = true
			rep.JobsInView++
		}
	}

	// 1. Feature Generation (aggregation + spans).
	feats, err := a.FeatureGen.Run(jobs, view)
	if err != nil {
		return nil, err
	}
	rep.JobsWithSpan = len(feats)

	// 2-3. Recommendation + Recompilation.
	recs := Recommend(a.CB, a.Catalog, feats)
	a.CB.Train()
	rep.Recommendations = len(recs)
	for _, r := range recs {
		switch {
		case r.NoOp:
			rep.NoOps++
		case r.CompileFailed:
			rep.CompileFails++
		case r.CostDelta < 0:
			rep.LowerCost++
		case r.CostDelta == 0:
			rep.EqualCost++
		default:
			rep.HigherCost++
		}
	}

	// 4. Flighting: improved flips only (any estimated-cost improvement
	// earns a flight), one representative per template. A flight whose
	// service shares the advisor's catalog runs the recompilation's
	// result rather than compiling the treatment again.
	improved := Improved(recs)
	reps := RepresentativePerTemplate(improved, a.cfg.Seed+int64(date))
	shareCompiled := a.Flight.Catalog() == a.Catalog
	var reqs []flighting.Request
	for _, r := range reps {
		req := flighting.Request{
			Job:       r.Features.Job,
			Treatment: a.Catalog.DefaultConfig().WithFlip(r.Flip),
			EstCost:   r.TreatCost,
			Flip:      r.Flip,
		}
		if shareCompiled {
			req.Compiled = r.Recompiled
		}
		reqs = append(reqs, req)
	}
	rep.FlightsRequested = len(reqs)
	results := a.Flight.Run(reqs)
	for _, res := range results {
		rep.FlightOutcomes[res.Outcome]++
	}

	// 5. Validation: grow the dataset — from the recommendation flights
	// plus a random exploration subset — train once warm, and accept
	// flips whose predicted PNhours delta clears the threshold.
	successes := flighting.Successes(results)
	observe := func(res flighting.Result) {
		if !res.HasFuture {
			return
		}
		readD, writtenD, pnD := Deltas(res.Baseline, res.Treat)
		_, _, futurePN := Deltas(res.FutureBaseline, res.FutureTreat)
		a.Validator.Observe(date, pnD, readD, writtenD, futurePN)
	}
	for _, res := range successes {
		observe(res)
	}
	for _, res := range flighting.Successes(a.explorationFlights(date, feats)) {
		observe(res)
	}
	rep.ValidationSamples = a.Validator.SampleCount()

	var hints []sis.Hint
	if a.Validator.SampleCount() >= a.cfg.MinValidationSamples {
		if err := a.Validator.Train(); err == nil {
			rep.ValidatorTrained = true
			for _, res := range successes {
				readD, writtenD, pnD := Deltas(res.Baseline, res.Treat)
				// Both the model's prediction and the observed flight
				// direction must agree, avoiding regressions introduced
				// by cluster variability (§4.3).
				if a.Validator.Accept(pnD, readD, writtenD) && pnD < 0 {
					rep.Validated++
					hints = append(hints, sis.Hint{
						TemplateHash: res.Request.Job.Template.Hash,
						TemplateID:   res.Request.Job.Template.ID,
						Flip:         res.Request.Flip,
						Day:          date,
					})
				}
			}
		}
	}

	// 6. Hint Generation: merge the day's accepted hints with the
	// still-active ones and upload a fresh SIS version.
	merged := a.mergeHints(hints)
	if err := a.Store.Upload(sis.File{Day: date, Hints: merged}); err != nil {
		return nil, err
	}
	rep.HintsUploaded = len(merged)
	return rep, nil
}

// explorationFlights flights random (job, span-flip) pairs to feed the
// validation model's training set.
func (a *Advisor) explorationFlights(date int, feats []*JobFeatures) []flighting.Result {
	if len(feats) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(a.cfg.Seed + int64(date)*31))
	var reqs []flighting.Request
	var buf [rules.NumRules]int
	for i := 0; i < explorationFlightsPerDay; i++ {
		f := feats[rng.Intn(len(feats))]
		bits := f.Span.AppendBits(buf[:0])
		if len(bits) == 0 {
			continue
		}
		flip := a.Catalog.FlipFor(bits[rng.Intn(len(bits))])
		reqs = append(reqs, flighting.Request{
			Job:       f.Job,
			Treatment: a.Catalog.DefaultConfig().WithFlip(flip),
			EstCost:   f.EstCost,
			Flip:      flip,
		})
	}
	return a.Flight.Run(reqs)
}

// mergeHints combines newly validated hints with the active set — the
// store's newest version, whoever uploaded it; new hints win on conflict.
// The merge map is pre-sized, so a day costs O(active + fresh) with two
// allocations.
func (a *Advisor) mergeHints(fresh []sis.Hint) []sis.Hint {
	var active []sis.Hint
	if hist := a.Store.History(); len(hist) > 0 {
		active = hist[len(hist)-1].Hints
	}
	byTemplate := make(map[uint64]sis.Hint, len(active)+len(fresh))
	order := make([]uint64, 0, len(active)+len(fresh))
	for _, hints := range [2][]sis.Hint{active, fresh} {
		for _, h := range hints {
			if _, ok := byTemplate[h.TemplateHash]; !ok {
				order = append(order, h.TemplateHash)
			}
			byTemplate[h.TemplateHash] = h
		}
	}
	out := make([]sis.Hint, 0, len(order))
	for _, key := range order {
		out = append(out, byTemplate[key])
	}
	return out
}

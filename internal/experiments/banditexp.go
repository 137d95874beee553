package experiments

import (
	"fmt"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/workload"
)

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Label      string
	LowerCost  int
	EqualCost  int
	HigherCost int
	Failures   int
}

// Table3Result reproduces Table 3: random versus contextual-bandit rule
// flips, compared on recompiled estimated cost.
type Table3Result struct {
	JobsConsidered   int
	NonEmptySpanFrac float64
	Random           Table3Row
	CB               Table3Row
	// Total estimated costs of the workload under each policy (a job's
	// cost is its flipped-config estimate when it compiled, else its
	// default). The paper reports a >100x gap (1.7e11 vs 1.0e9).
	RandomTotalCost float64
	CBTotalCost     float64
	TrainingDays    int
}

// featuresForDay featurizes one day's jobs: span + default cost. With
// uniqueOnly, one instance per template is used (the evaluation setting);
// otherwise every recurrence contributes training data.
func (l *Lab) featuresForDay(day int, uniqueOnly bool) ([]*core.JobFeatures, int, error) {
	var jobs []*workload.Job
	var err error
	if uniqueOnly {
		jobs, err = l.uniqueJobsForDay(day)
	} else {
		jobs, err = l.jobsForDay(day)
	}
	if err != nil {
		return nil, 0, err
	}
	var feats []*core.JobFeatures
	total := 0
	for _, job := range jobs {
		total++
		sp, err := l.spans.Span(job)
		if err != nil || sp.Span.IsEmpty() {
			continue
		}
		base, err := l.compileDefault(job)
		if err != nil {
			continue
		}
		f := &core.JobFeatures{
			Job:           job,
			RuleSignature: base.Signature,
			EstCost:       base.EstCost,
			Span:          sp.Span,
		}
		// Coarse input features for the bandit context.
		f.RowCount = base.Plan.Roots[0].EstRows
		feats = append(feats, f)
	}
	return feats, total, nil
}

// Table3 trains the CB recommender off-policy for trainDays days and then
// compares CB flips against uniform-random flips on a fresh day.
func (l *Lab) Table3(trainDays int) (*Table3Result, error) {
	cb := core.NewCBRecommender(l.Catalog, l.Cfg.Seed+77)
	cb.Uniform = true // off-policy data collection
	for day := 1; day <= trainDays; day++ {
		feats, _, err := l.featuresForDay(day, false)
		if err != nil {
			return nil, err
		}
		core.Recommend(cb, l.Catalog, feats)
		cb.Train()
	}

	evalDay := trainDays + 1
	feats, total, err := l.featuresForDay(evalDay, true)
	if err != nil {
		return nil, err
	}
	res := &Table3Result{
		JobsConsidered: total,
		TrainingDays:   trainDays,
	}
	if total > 0 {
		res.NonEmptySpanFrac = float64(len(feats)) / float64(total)
	}

	// Evaluation policies: the trained CB acting on its learned policy
	// versus uniform-random flips.
	cb.Uniform = false
	rnd := core.NewRandomRecommender(l.Catalog, l.Cfg.Seed+99)

	cbRecs := core.Recommend(cb, l.Catalog, feats)
	rndRecs := core.Recommend(rnd, l.Catalog, feats)

	res.CB = tabulate("contextual-bandit", cbRecs)
	res.Random = tabulate("random", rndRecs)
	res.CBTotalCost = totalCost(cbRecs)
	res.RandomTotalCost = totalCost(rndRecs)
	return res, nil
}

func tabulate(label string, recs []*core.Recommendation) Table3Row {
	row := Table3Row{Label: label}
	for _, r := range recs {
		switch {
		case r.NoOp:
			// The CB may choose "change nothing": count as equal cost.
			row.EqualCost++
		case r.CompileFailed:
			row.Failures++
		case r.CostDelta < 0:
			row.LowerCost++
		case r.CostDelta == 0:
			row.EqualCost++
		default:
			row.HigherCost++
		}
	}
	return row
}

// totalCost sums the estimated cost of the workload under a policy's
// flips as applied: the flipped configuration's cost when it compiled,
// and the default cost for no-ops and compile failures. Random flips can
// blow individual jobs up by orders of magnitude, which is what drives
// the paper's >100x total-cost gap between the two rows.
func totalCost(recs []*core.Recommendation) float64 {
	sum := 0.0
	for _, r := range recs {
		if r.NoOp || r.CompileFailed {
			sum += r.Features.EstCost
			continue
		}
		sum += r.TreatCost
	}
	return sum
}

// OffPolicyResult is the counterfactual evaluation of §6: using the
// logged uniform-random telemetry, estimate offline how the learned
// greedy policy would have performed ("we use counter-factual evaluations
// where we can rely on past telemetry offline to improve learning
// parameters and to tune the model").
type OffPolicyResult struct {
	LoggedEvents int
	// LoggingValue is the average reward the uniform logging policy
	// actually obtained (reward 1.0 = no change; >1 = cost reduction).
	LoggingValue float64
	// GreedyIPSValue is the inverse-propensity-scored estimate of the
	// learned greedy policy's average reward on the same log.
	GreedyIPSValue float64
}

// OffPolicyEvaluation trains the CB off-policy and evaluates the learned
// greedy policy counterfactually against the logging policy. Train
// releases the events it consumes, so each day's rewarded events are
// collected before it.
func (l *Lab) OffPolicyEvaluation(trainDays int) (*OffPolicyResult, error) {
	cb := core.NewCBRecommender(l.Catalog, l.Cfg.Seed+177)
	cb.Uniform = true
	var logged []*bandit.Event
	sum := 0.0
	for day := 1; day <= trainDays; day++ {
		feats, _, err := l.featuresForDay(day, false)
		if err != nil {
			return nil, err
		}
		core.Recommend(cb, l.Catalog, feats)
		for _, ev := range cb.Service.Events() {
			if ev.Rewarded {
				logged = append(logged, ev)
				sum += ev.Reward
			}
		}
		cb.Train()
	}
	if len(logged) == 0 {
		return nil, errNoRewardedEvents
	}
	v, err := cb.Service.CounterfactualValue(logged, cb.Service.GreedyPolicy())
	if err != nil {
		return nil, err
	}
	return &OffPolicyResult{
		LoggedEvents:   len(logged),
		LoggingValue:   sum / float64(len(logged)),
		GreedyIPSValue: v,
	}, nil
}

var errNoRewardedEvents = fmt.Errorf("experiments: no rewarded events logged")

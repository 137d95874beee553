package experiments

import (
	"math/rand"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/stats"
)

// StabilityPoint is one job's week0/week1 delta pair (Figures 2 and 4):
// the A/B improvement measured in week0 versus the improvement of the
// same recurring job re-measured one week later.
type StabilityPoint struct {
	JobID      string
	Week0Delta float64
	Week1Delta float64
}

// StabilityResult reproduces Figures 2 (latency) and 4 (PNhours).
type StabilityResult struct {
	Metric string
	Points []StabilityPoint
	// FracImproved is the fraction of jobs with a week0 improvement.
	FracImproved float64
	// FracRegressed is the fraction of week0-improved jobs that regress
	// when re-run in week1 — the paper reports more than 40%.
	FracRegressed float64
}

// Stability runs the recurring-job stability experiment for the given
// metric ("latency" or "pnhours"): find a cost-improving flip per job,
// A/B it in week0 (day 1) and again in week1 (day 8), and compare deltas.
func (l *Lab) Stability(metric string) (*StabilityResult, error) {
	rng := rand.New(rand.NewSource(l.Cfg.Seed + 101))
	res := &StabilityResult{Metric: metric}

	week0Jobs, err := l.uniqueJobsForDay(1)
	if err != nil {
		return nil, err
	}
	pickMetric := func(m exec.Metrics) float64 {
		if metric == "pnhours" {
			return m.PNHours
		}
		return m.LatencySec
	}

	improvedW0 := 0
	regressedW1 := 0
	for _, j0 := range week0Jobs {
		sp, err := l.spans.Span(j0)
		if err != nil || sp.Span.IsEmpty() {
			continue
		}
		base0, err := l.compileDefault(j0)
		if err != nil {
			continue
		}
		seed0 := int64(1000 + len(res.Points))
		mBase0 := exec.Run(base0.Plan, j0.Truth, j0.Stats, l.Cluster, seed0)

		// Week 0: flight one cost-improving flip, drawn in random span
		// order.
		flip, treat0, found := l.costImprovingFlip(j0, sp.Span.Bits(), rng)
		if !found {
			continue
		}
		mTreat0 := exec.Run(treat0.Plan, j0.Truth, j0.Stats, l.Cluster, seed0+1)

		// Week 1: the same recurring template, seven days later, with
		// that week's inputs and fresh cluster noise.
		j1, err := j0.Template.Instantiate(j0.Date+7, 0)
		if err != nil {
			continue
		}
		base1, err := l.compileDefault(j1)
		if err != nil {
			continue
		}
		cfg := l.Catalog.DefaultConfig().WithFlip(flip)
		treat1, err := l.compileWith(j1, cfg)
		if err != nil {
			continue
		}
		seed1 := seed0 + 50000
		mBase1 := exec.Run(base1.Plan, j1.Truth, j1.Stats, l.Cluster, seed1)
		mTreat1 := exec.Run(treat1.Plan, j1.Truth, j1.Stats, l.Cluster, seed1+1)

		d0 := stats.RelativeDelta(pickMetric(mBase0), pickMetric(mTreat0))
		d1 := stats.RelativeDelta(pickMetric(mBase1), pickMetric(mTreat1))
		res.Points = append(res.Points, StabilityPoint{JobID: j0.ID, Week0Delta: d0, Week1Delta: d1})
		if d0 < 0 {
			improvedW0++
			if d1 > 0 {
				regressedW1++
			}
		}
	}
	if len(res.Points) > 0 {
		res.FracImproved = float64(improvedW0) / float64(len(res.Points))
	}
	if improvedW0 > 0 {
		res.FracRegressed = float64(regressedW1) / float64(improvedW0)
	}
	return res, nil
}

// VariancePoint is one job's A/A variance sample (Figures 3 and 5).
type VariancePoint struct {
	JobID string
	// NormalizedTime is the job's mean runtime normalized to the
	// workload's maximum (the figures' x axis).
	NormalizedTime float64
	// CV is the coefficient of variation of the metric over AARuns runs.
	CV float64
}

// VarianceResult reproduces Figures 3 (latency) and 5 (PNhours).
type VarianceResult struct {
	Metric string
	Points []VariancePoint
	// FracAbove5 is the fraction of jobs with more than 5% variance —
	// above 90% for latency, below 50% for PNhours in the paper.
	FracAbove5 float64
	MedianCV   float64
	MaxCV      float64
}

// Variance runs the A/A experiment: each unique job executes AARuns times
// under the default configuration and identical inputs; only cluster
// noise differs.
func (l *Lab) Variance(metric string) (*VarianceResult, error) {
	jobs, err := l.uniqueJobsForDay(1)
	if err != nil {
		return nil, err
	}
	res := &VarianceResult{Metric: metric}
	var means []float64
	var cvs []float64
	for i, job := range jobs {
		base, err := l.compileDefault(job)
		if err != nil {
			continue
		}
		runs := exec.RunN(base.Plan, job.Truth, job.Stats, l.Cluster, int64(9000+i*37), AARuns)
		var vals []float64
		for _, m := range runs {
			if metric == "pnhours" {
				vals = append(vals, m.PNHours)
			} else {
				vals = append(vals, m.LatencySec)
			}
		}
		cv := stats.CoefficientOfVariation(vals)
		means = append(means, stats.Mean(vals))
		cvs = append(cvs, cv)
		res.Points = append(res.Points, VariancePoint{JobID: job.ID, CV: cv})
	}
	maxMean := stats.Max(means)
	for i := range res.Points {
		if maxMean > 0 {
			res.Points[i].NormalizedTime = means[i] / maxMean
		}
	}
	res.FracAbove5 = stats.FractionAbove(cvs, 0.05)
	res.MedianCV, _ = stats.Median(cvs)
	res.MaxCV = stats.Max(cvs)
	return res, nil
}

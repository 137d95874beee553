package experiments

import (
	"sort"

	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/stats"
)

// JobDeltas is one hinted job's A/B deltas against the default plan
// (Figures 10-12 plot these sorted per metric).
type JobDeltas struct {
	JobID        string
	TemplateID   string
	PNDelta      float64
	LatencyDelta float64
	VertexDelta  float64
}

// AggregateResult reproduces Table 2 and Figures 10-12: after the
// pipeline has run for several days, the jobs matching QO-Advisor hints
// are compared against their default plans in pre-production.
type AggregateResult struct {
	TrainingDays int
	// MatchedJobs is the number of jobs with an active hint on the
	// evaluation day (the paper's Table 2 covers 70 such jobs).
	MatchedJobs int
	TotalJobs   int

	// Table 2: aggregate percentage reductions (negative = savings).
	PNHoursReduction  float64
	LatencyReduction  float64
	VerticesReduction float64

	// Figures 10-12 raw data.
	Deltas []JobDeltas

	// Distribution summaries.
	FracPNImproved      float64
	BestPNDelta         float64
	WorstPNDelta        float64
	FracLatencyImproved float64
	BestLatencyDelta    float64
	WorstLatencyDelta   float64
	BestVertexDelta     float64
	WorstVertexDelta    float64

	// Pipeline bookkeeping from the final training day.
	FinalDayReport *core.DayReport
}

// Aggregate runs the full QO-Advisor loop for trainDays days and then
// evaluates the installed hints on the next day's workload.
func (l *Lab) Aggregate(trainDays int) (*AggregateResult, error) {
	store := l.freshStore()
	adv := core.NewAdvisor(l.Catalog, store, core.Config{
		Seed:                 l.Cfg.Seed,
		MinValidationSamples: 12,
		Flighting:            flighting.Config{Catalog: l.Catalog, Cluster: l.Cluster, Seed: l.Cfg.Seed + 5},
	})
	prod := l.production(store, l.Cfg.Seed+9)

	res := &AggregateResult{TrainingDays: trainDays}
	for day := 1; day <= trainDays; day++ {
		// Off-policy design (§4.2): gather rewards uniformly at random
		// for the first half of the run, then act with the learned
		// contextual-bandit policy.
		adv.CB.Uniform = day <= trainDays/2
		jobs, err := l.jobsForDay(day)
		if err != nil {
			return nil, err
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			return nil, err
		}
		rep, err := adv.RunDay(day, jobs, view)
		if err != nil {
			return nil, err
		}
		res.FinalDayReport = rep
	}

	// Evaluation day: A/B hinted configs against the default plans.
	evalDay := trainDays + 1
	jobs, err := l.jobsForDay(evalDay)
	if err != nil {
		return nil, err
	}
	res.TotalJobs = len(jobs)
	def := l.Catalog.DefaultConfig()
	var totalPNBase, totalPNTreat float64
	var totalLatBase, totalLatTreat float64
	var totalVBase, totalVTreat float64
	for i, job := range jobs {
		hint, ok := store.Lookup(job.Template.Hash)
		if !ok {
			continue
		}
		base, err := l.compileWith(job, def)
		if err != nil {
			continue
		}
		treat, err := l.compileWith(job, def.WithFlip(hint.Flip))
		if err != nil {
			continue
		}
		res.MatchedJobs++
		seed := int64(evalDay*1000000 + i*17)
		mBase := exec.Run(base.Plan, job.Truth, job.Stats, l.Cluster, seed)
		mTreat := exec.Run(treat.Plan, job.Truth, job.Stats, l.Cluster, seed+1)

		totalPNBase += mBase.PNHours
		totalPNTreat += mTreat.PNHours
		totalLatBase += mBase.LatencySec
		totalLatTreat += mTreat.LatencySec
		totalVBase += float64(mBase.Vertices)
		totalVTreat += float64(mTreat.Vertices)

		res.Deltas = append(res.Deltas, JobDeltas{
			JobID:        job.ID,
			TemplateID:   job.Template.ID,
			PNDelta:      stats.RelativeDelta(mBase.PNHours, mTreat.PNHours),
			LatencyDelta: stats.RelativeDelta(mBase.LatencySec, mTreat.LatencySec),
			VertexDelta:  stats.RelativeDelta(float64(mBase.Vertices), float64(mTreat.Vertices)),
		})
	}
	res.PNHoursReduction = stats.RelativeDelta(totalPNBase, totalPNTreat)
	res.LatencyReduction = stats.RelativeDelta(totalLatBase, totalLatTreat)
	res.VerticesReduction = stats.RelativeDelta(totalVBase, totalVTreat)

	var pn, lat, vert []float64
	for _, d := range res.Deltas {
		pn = append(pn, d.PNDelta)
		lat = append(lat, d.LatencyDelta)
		vert = append(vert, d.VertexDelta)
	}
	res.FracPNImproved = stats.FractionBelow(pn, 0)
	res.BestPNDelta = stats.Min(pn)
	res.WorstPNDelta = stats.Max(pn)
	res.FracLatencyImproved = stats.FractionBelow(lat, 0)
	res.BestLatencyDelta = stats.Min(lat)
	res.WorstLatencyDelta = stats.Max(lat)
	res.BestVertexDelta = stats.Min(vert)
	res.WorstVertexDelta = stats.Max(vert)
	return res, nil
}

// SortedDeltas returns the per-job deltas of the chosen metric in
// ascending order, the exact series Figures 10-12 plot.
func (r *AggregateResult) SortedDeltas(metric string) []float64 {
	out := make([]float64, 0, len(r.Deltas))
	for _, d := range r.Deltas {
		switch metric {
		case "latency":
			out = append(out, d.LatencyDelta)
		case "vertices":
			out = append(out, d.VertexDelta)
		default:
			out = append(out, d.PNDelta)
		}
	}
	sort.Float64s(out)
	return out
}

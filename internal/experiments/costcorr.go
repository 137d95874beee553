package experiments

import (
	"math/rand"
	"sort"

	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/regression"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/stats"
)

// FlightObservation is one A/B flighting measurement of a
// cost-improving rule flip: the raw material of Figures 6-9.
type FlightObservation struct {
	JobID string
	Day   int

	CostDelta    float64 // estimated-cost delta (new/old - 1)
	LatencyDelta float64
	PNDelta      float64
	ReadDelta    float64
	WrittenDelta float64
	// FuturePNDelta is the PNhours delta of the recurring job's next
	// occurrence under the same flip — the validation model's label.
	FuturePNDelta float64
	HasFuture     bool
}

// flightDays is the length of the lab's flight log: Figure 9's two
// weeks, whose first five days are Figures 6-8's.
const flightDays = 14

// flightsThrough returns the lab's flight log up to and including
// lastDay (at most flightDays), gathering the whole log on first use.
// One rng draws the log day by day, so its prefix is what a gather that
// stopped at lastDay would have drawn.
func (l *Lab) flightsThrough(lastDay int) ([]FlightObservation, error) {
	if l.flights == nil {
		obs, err := l.gatherFlights()
		if err != nil {
			return nil, err
		}
		l.flights = obs
	}
	n := sort.Search(len(l.flights), func(i int) bool { return l.flights[i].Day > lastDay })
	return l.flights[:n:n], nil
}

// gatherFlights flights one cost-improving flip per unique job per day
// over days 1 to flightDays, returning the observations in day order
// (non-nil, so an empty log is still a gathered one).
func (l *Lab) gatherFlights() ([]FlightObservation, error) {
	rng := rand.New(rand.NewSource(l.Cfg.Seed + 301))
	out := []FlightObservation{}
	for day := 1; day <= flightDays; day++ {
		jobs, err := l.uniqueJobsForDay(day)
		if err != nil {
			return nil, err
		}
		for i, job := range jobs {
			sp, err := l.spans.Span(job)
			if err != nil || sp.Span.IsEmpty() {
				continue
			}
			bits := sp.Span.Bits()
			base, err := l.compileDefault(job)
			if err != nil {
				continue
			}
			// Mixed flip population: mostly random cost-improving flips,
			// with a share of best-estimated-cost flips mirroring the
			// flighting queue's cheapest-first processing bias.
			var flip rules.Flip
			var treat *optimizer.Result
			var found bool
			if rng.Float64() < 0.3 {
				flip, treat, found = l.bestCostFlip(job, bits)
			} else {
				flip, treat, found = l.costImprovingFlip(job, bits, rng)
			}
			if !found {
				continue
			}
			seed := int64(day*100000 + i*13)
			mBase := exec.Run(base.Plan, job.Truth, job.Stats, l.Cluster, seed)
			mTreat := exec.Run(treat.Plan, job.Truth, job.Stats, l.Cluster, seed+1)
			readD, writtenD, pnD := core.Deltas(mBase, mTreat)
			obs := FlightObservation{
				JobID:        job.ID,
				Day:          day,
				CostDelta:    treat.EstCost/base.EstCost - 1,
				LatencyDelta: stats.RelativeDelta(mBase.LatencySec, mTreat.LatencySec),
				PNDelta:      pnD,
				ReadDelta:    readD,
				WrittenDelta: writtenD,
			}
			// Next occurrence under the same flip: the validation label.
			if future, err := job.Template.Instantiate(job.Date+1, job.Seq); err == nil {
				fb, err1 := l.compileDefault(future)
				ft, err2 := l.compileWith(future, l.Catalog.DefaultConfig().WithFlip(flip))
				if err1 == nil && err2 == nil {
					fmB := exec.Run(fb.Plan, future.Truth, future.Stats, l.Cluster, seed+77)
					fmT := exec.Run(ft.Plan, future.Truth, future.Stats, l.Cluster, seed+78)
					_, _, obs.FuturePNDelta = core.Deltas(fmB, fmT)
					obs.HasFuture = true
				}
			}
			out = append(out, obs)
		}
	}
	return out, nil
}

// CostVsLatencyResult reproduces Figure 6: estimated-cost delta versus
// latency delta for jobs flighted over several days.
type CostVsLatencyResult struct {
	Observations []FlightObservation
	// Correlation between cost delta and latency delta — near zero in
	// the paper ("no real correlation").
	Pearson  float64
	Spearman float64
	// FracRegressedAmongImproved is the fraction of cost-improved jobs
	// whose latency regressed (paper: over 40%).
	FracRegressedAmongImproved float64
}

// CostVsLatency runs the Figure 6 experiment over five days of jobs.
func (l *Lab) CostVsLatency() (*CostVsLatencyResult, error) {
	obs, err := l.flightsThrough(5)
	if err != nil {
		return nil, err
	}
	res := &CostVsLatencyResult{Observations: obs}
	var costs, lats []float64
	regressed, improved := 0, 0
	for _, o := range obs {
		costs = append(costs, o.CostDelta)
		lats = append(lats, o.LatencyDelta)
		if o.CostDelta < 0 { // all gathered flips improve cost by construction
			improved++
			if o.LatencyDelta > 0 {
				regressed++
			}
		}
	}
	if p, err := stats.Pearson(costs, lats); err == nil {
		res.Pearson = p
	}
	if s, err := stats.Spearman(costs, lats); err == nil {
		res.Spearman = s
	}
	if improved > 0 {
		res.FracRegressedAmongImproved = float64(regressed) / float64(improved)
	}
	return res, nil
}

// IOCorrelationResult reproduces Figures 7 (DataRead) and 8
// (DataWritten): the correlation between an I/O delta and the PNhours
// delta, with the polynomial trend line the figures draw.
type IOCorrelationResult struct {
	Metric       string // "read" or "written"
	Observations []FlightObservation
	Pearson      float64
	// Trend is the 1-D polynomial fit (degree 1), matching the dotted
	// trend line.
	Trend *regression.Polynomial
	// TrendSlope is the linear coefficient (positive in the paper).
	TrendSlope float64
}

// IOCorrelation runs the Figure 7/8 experiment for "read" or "written".
func (l *Lab) IOCorrelation(metric string) (*IOCorrelationResult, error) {
	obs, err := l.flightsThrough(5)
	if err != nil {
		return nil, err
	}
	res := &IOCorrelationResult{Metric: metric, Observations: obs}
	var xs, ys []float64
	for _, o := range obs {
		x := o.ReadDelta
		if metric == "written" {
			x = o.WrittenDelta
		}
		xs = append(xs, x)
		ys = append(ys, o.PNDelta)
	}
	if p, err := stats.Pearson(xs, ys); err == nil {
		res.Pearson = p
	}
	if len(xs) >= 3 {
		if trend, err := regression.PolyFit(xs, ys, 1); err == nil {
			res.Trend = trend
			res.TrendSlope = trend.Coef[1]
		}
	}
	return res, nil
}

// observationsToSamples converts flight observations (with future labels)
// into validation training samples.
func observationsToSamples(obs []FlightObservation) []regression.Sample {
	var out []regression.Sample
	for _, o := range obs {
		if !o.HasFuture {
			continue
		}
		out = append(out, regression.Sample{
			Date: o.Day,
			X:    []float64{o.PNDelta, o.ReadDelta, o.WrittenDelta},
			Y:    o.FuturePNDelta,
		})
	}
	return out
}

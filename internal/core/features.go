// Package core implements the QO-Advisor pipeline itself: the five daily
// tasks of Figure 1 — Feature Generation, rule Recommendation (contextual
// bandit), Recompilation, Validation and Hint Generation — plus the
// production loop that applies installed hints at compile time. The
// pipeline runs offline over the previous day's denormalized workload
// view and emits (job template, rule hint) pairs to the Stats & Insight
// Service.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"qoadvisor/internal/par"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/span"
	"qoadvisor/internal/workload"
)

// JobFeatures is the per-job feature vector produced by the Feature
// Generation task: the Table 1 features aggregated from per-query view
// rows to job level (the "super root" aggregation of §4.1), plus the job
// span.
type JobFeatures struct {
	Job *workload.Job

	NormalizedJobName string
	RuleSignature     rules.Signature

	// Job-level features (aggregated with min — identical across a
	// job's query rows).
	Latency   float64
	EstCost   float64
	Vertices  int
	MaxMemory float64
	AvgMemory float64
	PNHours   float64

	// Query-level features aggregated by their semantics.
	EstCardinality float64 // sum
	BytesRead      float64 // sum
	RowCount       float64 // sum
	AvgRowLength   float64 // avg

	// Span is the set of plan-affecting rules (empty-span jobs are
	// dropped before recommendation).
	Span rules.Bitset
	// SpanFailedCompile records that span computation hit a compile
	// failure (a legitimate fix-point exit).
	SpanFailedCompile bool
}

// FeatureGen is the Feature Generation task.
type FeatureGen struct {
	Catalog *rules.Catalog

	// spanCache memoizes span computation per template hash. Instances of
	// a template on one day share a span, but a later day's instance
	// usually has another (993 of 1,162 instances over days 0-6 at seed
	// 42, 120 templates, differ from their template's day-0 span): the
	// memo serves a template's first computed span on every later day.
	// Entries singleflight so concurrent instances of one template
	// compute its span once.
	mu        sync.Mutex
	spanCache map[uint64]*spanEntry
}

type spanEntry struct {
	once sync.Once
	sp   *span.Result
	err  error
}

// NewFeatureGen creates the task.
func NewFeatureGen(cat *rules.Catalog) *FeatureGen {
	if cat == nil {
		cat = rules.NewCatalog()
	}
	return &FeatureGen{Catalog: cat, spanCache: make(map[uint64]*spanEntry)}
}

// Aggregate turns the per-query view rows of one job into job-level
// features using the Table 1 aggregation functions: min for job-level
// features, sum for cardinalities/bytes/rows, avg for row length.
func Aggregate(rows []workload.ViewRow) (JobFeatures, error) {
	if len(rows) == 0 {
		return JobFeatures{}, fmt.Errorf("core: no view rows to aggregate")
	}
	f := JobFeatures{
		NormalizedJobName: rows[0].NormalizedJobName,
		RuleSignature:     rows[0].RuleSignature,
		Latency:           math.Inf(1),
		EstCost:           math.Inf(1),
		MaxMemory:         math.Inf(1),
		AvgMemory:         math.Inf(1),
		PNHours:           math.Inf(1),
	}
	vertices := math.Inf(1)
	widthSum := 0.0
	for _, r := range rows {
		// Job-level: min (all rows carry the same value).
		f.Latency = math.Min(f.Latency, r.Latency)
		f.EstCost = math.Min(f.EstCost, r.EstimatedCost)
		f.MaxMemory = math.Min(f.MaxMemory, r.MaxMemory)
		f.AvgMemory = math.Min(f.AvgMemory, r.AvgMemory)
		f.PNHours = math.Min(f.PNHours, r.PNHours)
		vertices = math.Min(vertices, float64(r.Vertices))
		// Query-level: semantic aggregation.
		f.EstCardinality += r.EstimatedCard
		f.BytesRead += r.BytesRead
		f.RowCount += r.RowCount
		widthSum += r.AvgRowLength
	}
	f.Vertices = int(vertices)
	f.AvgRowLength = widthSum / float64(len(rows))
	return f, nil
}

// Run executes Feature Generation for one day: it aggregates each job's
// view rows and computes job spans, dropping jobs with empty spans.
// Span computation — the expensive part, a fix point of recompilations —
// fans out across a GOMAXPROCS-bounded worker pool, deduplicated per
// template. A day's instances of a template share a span, whichever of
// them computes it, and the returned slice is sorted by job ID, so
// output is identical at any GOMAXPROCS.
//
// The view is grouped without a map of slices: each job ID gets a slot
// in order of first appearance, and the rows are placed slot by slot into
// one slab, each job's rows in view order; the features live in one slab
// too. A job aggregates the rows the view gave it, in the order it gave
// them, wherever in the view they sit.
func (fg *FeatureGen) Run(jobs []*workload.Job, view []workload.ViewRow) ([]*JobFeatures, error) {
	slotOf := make(map[string]int, len(jobs))
	slotRow := make([]int, len(view))
	// Per slot: its row count, then where its rows end, then — filled
	// from the back — where they begin; the last entry closes the slab.
	var starts []int
	for i, r := range view {
		k, ok := slotOf[r.JobID]
		if !ok {
			k = len(starts)
			slotOf[r.JobID] = k
			starts = append(starts, 0)
		}
		slotRow[i] = k
		starts[k]++
	}
	end := 0
	for k, n := range starts {
		end += n
		starts[k] = end
	}
	grouped := make([]workload.ViewRow, len(view))
	for i := len(view) - 1; i >= 0; i-- {
		k := slotRow[i]
		starts[k]--
		grouped[starts[k]] = view[i]
	}
	starts = append(starts, len(view))

	feats := make([]JobFeatures, len(jobs))
	results := make([]*JobFeatures, len(jobs))
	errs := make([]error, len(jobs))
	work := func(i int) {
		job := jobs[i]
		k, ok := slotOf[job.ID]
		if !ok {
			return // job missing from the view (e.g. failed upstream)
		}
		f, err := Aggregate(grouped[starts[k]:starts[k+1]])
		if err != nil {
			errs[i] = err
			return
		}
		f.Job = job

		sp, err := fg.Span(job)
		if err != nil {
			// Span computation requires a default compile; a job that
			// cannot compile is dropped.
			return
		}
		f.Span = sp.Span
		f.SpanFailedCompile = sp.FailedCompile
		if f.Span.IsEmpty() {
			return // "all jobs that have an empty span are not further considered"
		}
		feats[i] = f
		results[i] = &feats[i]
	}

	par.For(len(jobs), work)

	var out []*JobFeatures
	for i := range jobs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if results[i] != nil {
			out = append(out, results[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job.ID < out[j].Job.ID })
	return out, nil
}

// Span computes (or serves from cache) the span of a job's template.
// Concurrent callers for one template share a single computation.
func (fg *FeatureGen) Span(job *workload.Job) (*span.Result, error) {
	key := job.Template.Hash
	fg.mu.Lock()
	e, ok := fg.spanCache[key]
	if !ok {
		e = &spanEntry{}
		fg.spanCache[key] = e
	}
	fg.mu.Unlock()
	e.once.Do(func() {
		e.sp, e.err = span.Compute(job.Graph, fg.Catalog, job.CompileOptions(fg.Catalog))
	})
	if e.err != nil {
		// Failures are not memoized across days: a later instance (new
		// graph, new stats) deserves a fresh attempt, matching the
		// pre-parallel behaviour.
		fg.mu.Lock()
		if fg.spanCache[key] == e {
			delete(fg.spanCache, key)
		}
		fg.mu.Unlock()
	}
	return e.sp, e.err
}

package core

import (
	"reflect"
	"testing"

	"qoadvisor/internal/featurize"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// TestFeatureGenInterleavedView: FeatureGen.Run groups the view by job ID
// wherever a job's rows sit. A view whose jobs' rows are interleaved, that
// omits one job and that carries a row of a job not in jobs gives exactly
// the features of the production-order view without that job.
func TestFeatureGenInterleavedView(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 12)
	jobs, view := runProductionDay(t, gen, sis.NewStore(cat), cat, 1)
	full, err := NewFeatureGen(cat).Run(jobs, view)
	if err != nil {
		t.Fatal(err)
	}
	// Omit a featurized job with more than one row.
	perJob := make(map[string][]workload.ViewRow)
	var order []string
	for _, r := range view {
		if _, ok := perJob[r.JobID]; !ok {
			order = append(order, r.JobID)
		}
		perJob[r.JobID] = append(perJob[r.JobID], r)
	}
	omit := ""
	for _, f := range full {
		if len(perJob[f.Job.ID]) > 1 {
			omit = f.Job.ID
			break
		}
	}
	if omit == "" {
		t.Fatal("no featurized job has more than one view row")
	}

	var inOrder, interleaved []workload.ViewRow
	for _, r := range view {
		if r.JobID != omit {
			inOrder = append(inOrder, r)
		}
	}
	// Round robin over the jobs, each job's rows kept in view order, with
	// a stranger's row halfway through.
	stranger := view[0]
	stranger.JobID, stranger.RowCount = "J_not_in_jobs", 1e12
	for k := 0; len(interleaved) < len(inOrder)+1; k++ {
		for _, id := range order {
			if rows := perJob[id]; id != omit && k < len(rows) {
				interleaved = append(interleaved, rows[k])
			}
		}
		if k == 0 {
			interleaved = append(interleaved, stranger)
		}
	}
	if reflect.DeepEqual(interleaved[:len(inOrder)], inOrder) {
		t.Fatal("the interleaved view is in production order")
	}

	want, err := NewFeatureGen(cat).Run(jobs, inOrder)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewFeatureGen(cat).Run(jobs, interleaved)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(full)-1 {
		t.Fatalf("%d features without %s, %d with it", len(want), omit, len(full))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("features of the interleaved view differ from the production-order view's")
	}
}

// TestCBRecommenderEventsKeepOwnCopy: Recommend featurizes into pooled
// scratch that the next call overwrites, so the bandit's log must hold
// copies. After many calls, every logged event holds the context and the
// action set of its own job.
func TestCBRecommenderEventsKeepOwnCopy(t *testing.T) {
	cat := rules.NewCatalog()
	gen := testWorkload(t, 12)
	jobs, view := runProductionDay(t, gen, sis.NewStore(cat), cat, 1)
	feats, err := NewFeatureGen(cat).Run(jobs, view)
	if err != nil {
		t.Fatal(err)
	}
	cb := NewCBRecommender(cat, 3)
	ranked := make(map[string]*JobFeatures)
	for pass := 0; pass < 8; pass++ {
		cb.Uniform = pass%2 == 0
		for _, f := range feats {
			if _, _, id := cb.Recommend(f); id != "" {
				ranked[id] = f
			}
		}
	}
	events := cb.Service.Events()
	if len(events) != 8*len(feats) || len(ranked) != len(events) {
		t.Fatalf("%d events logged, %d event IDs returned, for %d calls", len(events), len(ranked), 8*len(feats))
	}
	for _, ev := range events {
		f := ranked[ev.EventID]
		if f == nil {
			t.Fatalf("event %s was not returned by Recommend", ev.EventID)
		}
		if want := featurize.Context(f.Span, f.RowCount, f.BytesRead); !reflect.DeepEqual(ev.Context, want) {
			t.Fatalf("event %s of %s holds context %v, want %v", ev.EventID, f.Job.ID, ev.Context.IDs, want.IDs)
		}
		if want := featurize.Actions(cat, f.Span); !reflect.DeepEqual(ev.Actions, want) {
			t.Fatalf("event %s of %s holds %d actions, want %d of its own span", ev.EventID, f.Job.ID, len(ev.Actions), len(want))
		}
	}
}

package workload

import (
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/scope"
)

// This file keeps Template.Instantiate as it was when every instance was
// built from scratch — sub-seeds through fmt.Fprint into a hash/fnv
// hasher, a new rand.Source per draw, placeholders replaced one
// strings.ReplaceAll at a time, fmt for every number — as the reference
// the shared, pooled, single-pass version is held to.

func hashedRef(parts ...interface{}) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	return int64(h.Sum64())
}

func rngForRef(parts ...interface{}) *rand.Rand {
	return rand.New(rand.NewSource(hashedRef(parts...)))
}

// litValueRef is the value literal lit of t takes on date.
func litValueRef(t *Template, lit string, date int) string {
	return fmt.Sprintf("%d", 10+rngForRef("lit", t.ID, lit, date).Intn(9000))
}

// refInstance is what instantiateRef builds for a job: its identity, its
// graph, and its facts in the maps they were kept in before they became
// positional.
type refInstance struct {
	ID                string
	Date, Seq, Tokens int
	Graph             *scope.Graph
	Rows, Sel         map[string]float64
	Stats             optimizer.MapStats
	JitterSeed        int64
}

// baseRows and selectivity are what exec.Truth answered when its facts
// were these maps: a known key its value, an unknown path 1e6 and an
// unknown site the jitter every Truth with that seed gives it.
func (r *refInstance) baseRows(path string) float64 {
	if v, ok := r.Rows[path]; ok {
		return v
	}
	return 1e6
}

func (r *refInstance) selectivity(site string, heuristic float64) float64 {
	if v, ok := r.Sel[site]; ok {
		return v
	}
	return (&exec.Truth{JitterSeed: r.JitterSeed}).Selectivity([]byte(site), heuristic)
}

func instantiateRef(t *Template, date, seq int) (*refInstance, error) {
	src := strings.ReplaceAll(t.ScriptPattern, "@DATE@", fmt.Sprintf("%08d", 20211100+date))
	litVals := make(map[string]string, len(t.Literals))
	for _, lit := range t.Literals {
		litVals[lit] = litValueRef(t, lit, date)
	}
	for lit, v := range litVals {
		src = strings.ReplaceAll(src, lit, v)
	}
	graph, err := scope.CompileScript(src)
	if err != nil {
		return nil, err
	}
	ref := &refInstance{
		ID:         fmt.Sprintf("J%08d_%s_%d", 20211100+date, t.ID, seq),
		Date:       date,
		Seq:        seq,
		Tokens:     t.Tokens,
		Graph:      graph,
		Rows:       make(map[string]float64, len(t.Tables)),
		Sel:        make(map[string]float64, len(t.TrueSel)),
		Stats:      make(optimizer.MapStats, len(t.Tables)),
		JitterSeed: hashedRef("jitter", t.ID),
	}
	for _, tab := range t.Tables {
		path := strings.ReplaceAll(tab.PathPattern, "@DATE@", fmt.Sprintf("%08d", 20211100+date))
		dayFactor := lognormal(rngForRef("rows", t.ID, tab.PathPattern, date), 0.35)
		trueRows := tab.TrueRows * dayFactor
		ref.Rows[path] = trueRows
		ndv := make(map[string]float64, len(tab.TrueNDV))
		for col, v := range tab.TrueNDV {
			f := tab.StatsNDVFactor[col]
			if f == 0 {
				f = 1
			}
			ndv[col] = math.Max(1, v*f)
		}
		ref.Stats[path] = optimizer.TableStats{
			Rows: math.Max(1, trueRows*tab.StatsRowFactor*lognormal(rngForRef("statdrift", t.ID, tab.PathPattern, date), 0.30)),
			NDV:  ndv,
		}
	}
	// Site patterns are written in sorted order: where two substitute to
	// one key, the later pattern's write is the one the map keeps.
	for _, sitePattern := range slices.Sorted(maps.Keys(t.TrueSel)) {
		site := sitePattern
		for lit, v := range litVals {
			site = strings.ReplaceAll(site, lit, v)
		}
		jitter := lognormal(rngForRef("sel", t.ID, sitePattern, date), 0.25)
		s := t.TrueSel[sitePattern] * jitter
		if s > 1 {
			s = 1
		}
		ref.Sel[site] = s
	}
	return ref, nil
}

// graphDiff compares two DAGs field by field — every field of every
// reachable node, in Nodes order, with Inputs compared by ID and the rest
// (schemas with their types and sources, expressions with their node
// types, payloads) by reflect.DeepEqual — and describes the first
// difference, or returns "" when there is none.
func graphDiff(got, want *scope.Graph) string {
	if got.IDBound() != want.IDBound() || len(got.Roots) != len(want.Roots) {
		return fmt.Sprintf("ID bound %d, %d roots; want %d, %d", got.IDBound(), len(got.Roots), want.IDBound(), len(want.Roots))
	}
	for i := range got.Roots {
		if got.Roots[i].ID != want.Roots[i].ID {
			return fmt.Sprintf("root %d is #%d, want #%d", i, got.Roots[i].ID, want.Roots[i].ID)
		}
	}
	gn, wn := got.Nodes(), want.Nodes()
	if len(gn) != len(wn) {
		return fmt.Sprintf("%d nodes, want %d", len(gn), len(wn))
	}
	for i := range gn {
		g, w := reflect.ValueOf(gn[i]).Elem(), reflect.ValueOf(wn[i]).Elem()
		for f := 0; f < g.NumField(); f++ {
			name := g.Type().Field(f).Name
			if name == "Inputs" {
				if ids(gn[i].Inputs) != ids(wn[i].Inputs) {
					return fmt.Sprintf("node #%d: inputs %s, want %s", gn[i].ID, ids(gn[i].Inputs), ids(wn[i].Inputs))
				}
				continue
			}
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				return fmt.Sprintf("node #%d %s: %s %+v, want %+v", gn[i].ID, gn[i].Kind, name, g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
	}
	return ""
}

func ids(nodes []*scope.Node) string {
	s := make([]string, len(nodes))
	for i, n := range nodes {
		s[i] = fmt.Sprint(n.ID)
	}
	return strings.Join(s, ",")
}

// refDiff describes the first way job differs from the from-scratch
// reference for its template, date and seq, or returns "" when it equals
// it field by field. The facts are compared through their lookups —
// BaseRows, Selectivity and TableStats — on every key either side holds
// and on one neither does: equal answers on all of them are equal maps.
func refDiff(job *Job) (string, error) {
	want, err := instantiateRef(job.Template, job.Date, job.Seq)
	if err != nil {
		return "", err
	}
	if job.ID != want.ID || job.Date != want.Date || job.Seq != want.Seq || job.Tokens != want.Tokens {
		return fmt.Sprintf("ID/Date/Seq/Tokens %s %d %d %d, reference %s %d %d %d",
			job.ID, job.Date, job.Seq, job.Tokens, want.ID, want.Date, want.Seq, want.Tokens), nil
	}
	if job.Truth.JitterSeed != want.JitterSeed {
		return fmt.Sprintf("jitter seed %d, reference %d", job.Truth.JitterSeed, want.JitterSeed), nil
	}
	const unknownPath, unknownSite = "no/such/table.tsv", "filter:(no_such_column > 0)"
	paths := slices.Concat(slices.Sorted(maps.Keys(want.Rows)), job.Truth.Paths, []string{unknownPath})
	for _, p := range paths {
		if got, w := job.Truth.BaseRows(p), want.baseRows(p); got != w {
			return fmt.Sprintf("BaseRows(%q) %v, reference %v", p, got, w), nil
		}
		got, gotOK := job.Stats.TableStats(p)
		w, wantOK := want.Stats[p]
		if gotOK != wantOK || !reflect.DeepEqual(got, w) {
			return fmt.Sprintf("TableStats(%q) %+v %v, reference %+v %v", p, got, gotOK, w, wantOK), nil
		}
	}
	sites := slices.Concat(slices.Sorted(maps.Keys(want.Sel)), job.Truth.Sites, []string{unknownSite})
	for _, site := range sites {
		for _, heuristic := range []float64{0.05, 0.5} {
			if got, w := job.Truth.Selectivity([]byte(site), heuristic), want.selectivity(site, heuristic); got != w {
				return fmt.Sprintf("Selectivity(%q, %v) %v, reference %v", site, heuristic, got, w), nil
			}
		}
	}
	if d := graphDiff(job.Graph, want.Graph); d != "" {
		return "graph differs from the reference: " + d, nil
	}
	return "", nil
}

// TestInstantiateSharedParts: every job JobsForDay hands out equals the
// from-scratch reference field by field, on dates whose decimal form has
// one, two and three digits; the jobs of a (template, date) share its
// graph, truth and statistics; and Instantiate of a job's (date, seq)
// returns the identical *Job, an element of the instance's job slab.
func TestInstantiateSharedParts(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 24})
	if err != nil {
		t.Fatal(err)
	}
	recurrences := 0
	for _, date := range []int{0, 1, 9, 10, 99, 100, 365} {
		jobs, err := gen.JobsForDay(date)
		if err != nil {
			t.Fatal(err)
		}
		var first *Job
		for _, got := range jobs {
			if d, err := refDiff(got); err != nil {
				t.Fatal(err)
			} else if d != "" {
				t.Errorf("%s: %s", got.ID, d)
			}
			if j, err := got.Template.Instantiate(date, got.Seq); err != nil || j != got {
				t.Errorf("%s: Instantiate(%d, %d) = %p, %v; JobsForDay handed out %p", got.ID, date, got.Seq, j, err, got)
			}
			if got.Seq == 0 {
				first = got
				continue
			}
			recurrences++
			if got.Template != first.Template || got.Graph != first.Graph || got.Truth != first.Truth || got.Stats != first.Stats {
				t.Errorf("%s does not share instance 0's graph, truth and statistics", got.ID)
			}
		}
	}
	if recurrences == 0 {
		t.Error("no template recurs within a day; the test lost its coverage")
	}
	// The template sub-seed is the one form with two adjacent numbers.
	if got, want := hashed("template", "-7", " ", "12"), hashedRef("template", int64(-7), 12); got != want {
		t.Errorf("template seed %d, reference %d", got, want)
	}
}

// TestInstantiateRejectsSeqOutOfRange: a template runs DailyInstances jobs
// a day, so Instantiate refuses a seq outside [0, DailyInstances) rather
// than hand out a job that no JobsForDay produces.
func TestInstantiateRejectsSeqOutOfRange(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tpl := range gen.Templates() {
		for _, seq := range []int{-1, tpl.DailyInstances, tpl.DailyInstances + 7} {
			if j, err := tpl.Instantiate(1, seq); err == nil {
				t.Errorf("%s runs %d jobs a day; Instantiate(1, %d) = %s, want an error", tpl.ID, tpl.DailyInstances, seq, j.ID)
			}
		}
		if _, err := tpl.Instantiate(1, tpl.DailyInstances-1); err != nil {
			t.Errorf("%s: its last job of the day: %v", tpl.ID, err)
		}
	}
}

// TestInstantiateConcurrentMatchesReference: as flighting does from
// par.For while the memo fills, goroutines instantiate every job of the
// next day of every template at once, each in its own order. Each gets
// the job JobsForDay then hands out, equal to the from-scratch reference.
func TestInstantiateConcurrentMatchesReference(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 12})
	if err != nil {
		t.Fatal(err)
	}
	const day, workers = 4, 8
	if _, err := gen.JobsForDay(day); err != nil {
		t.Fatal(err)
	}
	type slot struct {
		tpl *Template
		seq int
	}
	var slots []slot
	for _, tpl := range gen.Templates() {
		for seq := 0; seq < tpl.DailyInstances; seq++ {
			slots = append(slots, slot{tpl, seq})
		}
	}
	got := make([][]*Job, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([]*Job, len(slots))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range slots {
				k := (i + w*len(slots)/workers) % len(slots)
				j, err := slots[k].tpl.Instantiate(day+1, slots[k].seq)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][k] = j
			}
		}()
	}
	wg.Wait()
	jobs, err := gen.JobsForDay(day + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(slots) {
		t.Fatalf("JobsForDay gave %d jobs, the templates run %d", len(jobs), len(slots))
	}
	for k, job := range jobs {
		for w := range got {
			if got[w][k] != job {
				t.Fatalf("worker %d got %p for %s, JobsForDay hands out %p", w, got[w][k], job.ID, job)
			}
		}
		if d, err := refDiff(job); err != nil {
			t.Fatal(err)
		} else if d != "" {
			t.Errorf("%s: %s", job.ID, d)
		}
	}
}

// TestInstantiateSiteCollisionLastWins: two site patterns of a template
// can substitute to one key on a date — here a pattern and its copy with
// one placeholder written out as the value it takes that day. The key's
// true selectivity is then the later pattern's in the template's site
// order, as the map the facts once were kept the later write, and the
// instance still equals the reference.
func TestInstantiateSiteCollisionLastWins(t *testing.T) {
	gen, err := New(Config{Seed: 20211101, NumTemplates: 8})
	if err != nil {
		t.Fatal(err)
	}
	const date = 50
	for _, tpl := range gen.Templates() {
		var pattern, lit string
		for _, site := range tpl.sites {
			for _, l := range tpl.Literals {
				if strings.Contains(site, l) {
					pattern, lit = site, l
				}
			}
		}
		if pattern == "" {
			continue
		}
		// The copy has digits where pattern has '@', so it sorts first.
		twin := strings.ReplaceAll(pattern, lit, litValueRef(tpl, lit, date))
		tpl.TrueSel[twin] = tpl.TrueSel[pattern] / 3
		tpl.sites = slices.Sorted(maps.Keys(tpl.TrueSel))
		if i, j := slices.Index(tpl.sites, twin), slices.Index(tpl.sites, pattern); i >= j {
			t.Fatalf("%s: %q sorts at %d, after %q at %d", tpl.ID, twin, i, pattern, j)
		}
		job, err := tpl.Instantiate(date, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := instantiateRef(tpl, date, 0)
		if err != nil {
			t.Fatal(err)
		}
		if d, err := refDiff(job); err != nil {
			t.Fatal(err)
		} else if d != "" {
			t.Fatalf("%s: %s", job.ID, d)
		}
		key := pattern
		for _, l := range tpl.Literals {
			key = strings.ReplaceAll(key, l, litValueRef(tpl, l, date))
		}
		if n := slices.Index(job.Truth.Sites, key); n < 0 || slices.Index(job.Truth.Sites[n+1:], key) < 0 {
			t.Fatalf("%s: key %q is not written twice; the test lost its collision", job.ID, key)
		}
		last := min(tpl.TrueSel[pattern]*lognormal(rngForRef("sel", tpl.ID, pattern, date), 0.25), 1)
		first := min(tpl.TrueSel[twin]*lognormal(rngForRef("sel", tpl.ID, twin, date), 0.25), 1)
		if last == first {
			t.Fatalf("%s: both patterns give %v; the test cannot tell them apart", job.ID, last)
		}
		if got := job.Truth.Selectivity([]byte(key), 0.5); got != last || want.Sel[key] != last {
			t.Errorf("%s: Selectivity(%q) = %v, reference %v; want the later pattern's %v (the earlier gives %v)",
				job.ID, key, got, want.Sel[key], last, first)
		}
		return
	}
	t.Fatal("no template has a site pattern with a literal")
}

// TestSubstituteMatchesSequentialReplace: the arena writer, one pass over
// a pattern appended behind what dst holds, gives what replacing each
// placeholder in turn gives, in either order, with values as strings or as
// bytes of the arena, with placeholders adjacent, repeated, absent and
// sharing a prefix, and a stray '@' kept; and the job IDs it writes are
// the fmt-formatted ones.
func TestSubstituteMatchesSequentialReplace(t *testing.T) {
	olds := []string{"@DATE@", "@LIT1@", "@LIT10@", "@LIT2@"}
	news := []string{"20211103", "17", "9001", "230"}
	newBytes := make([][]byte, len(news))
	for i, v := range news {
		newBytes[i] = []byte(v)
	}
	const held = "held|"
	arena := func() []byte { return []byte(held)[:len(held):len(held)] }
	for _, pattern := range []string{
		"",
		"no placeholders, one stray @ sign",
		"@LIT1@@LIT10@@DATE@",
		"x > @LIT1@ AND y < @LIT10@ AND z == @LIT1@ FROM \"in/@DATE@/t_@DATE@.tsv\"",
		"@LIT3@ is not ours; @LIT is cut short; @@LIT2@@",
		"filter:(c > @LIT2@)",
	} {
		fwd, rev := pattern, pattern
		for i := range olds {
			fwd = strings.ReplaceAll(fwd, olds[i], news[i])
			rev = strings.ReplaceAll(rev, olds[len(olds)-1-i], news[len(olds)-1-i])
		}
		if fwd != rev {
			t.Fatalf("%q: the two sequential orders disagree", pattern)
		}
		for _, got := range []string{
			string(appendSubstitute(arena(), pattern, olds, news)),
			string(appendSubstitute(arena(), pattern, olds, newBytes)),
		} {
			if got != held+fwd {
				t.Errorf("appendSubstitute(%q, %q) = %q, sequential replacement gives %q", held, pattern, got, held+fwd)
			}
		}
	}
	for _, date := range []int{-20211101, -20211100, -3, 0, 1, 30, 99, 100, 1 << 40} {
		if got, want := dateStamp(date), fmt.Sprintf("%08d", 20211100+date); got != want {
			t.Errorf("dateStamp(%d) = %q, want %q", date, got, want)
		}
		for _, seq := range []int{0, 2, 17} {
			want := fmt.Sprintf("%sJ%08d_%s_%d", held, 20211100+date, "T007", seq)
			if got := string(appendJobID(arena(), "T007", date, seq)); got != want {
				t.Errorf("appendJobID(%q, %d, %d) = %q, want %q", held, date, seq, got, want)
			}
		}
	}
}

// Ceilings for TestInstantiateAllocBudget, measured on the ledger's T000
// (go1.24) + 5 %, rounded up. A recurrence and Instantiate of a memoized
// (template, date) hand out an element of the instance's job slab and
// allocate nothing (2 while each was a copy of the instance's first job
// with an ID of its own, 25 while only the graph was memoized, 106 while
// each draw built its own rand.Source and hasher). Building an instance
// costs one arena for every dated string, the bound graph, its slab of
// keys, its slab of floats, the truth and statistics over them, an empty
// rewrite memo and the job slab (13; 17 while the truth's rows and
// selectivities and the statistics were three maps keyed by dated
// string, 19 while the rewrite memo was a generic singleflight cache, 44
// while each dated string, each table's distinct counts, and each spine
// node and literal Bind made was an allocation of its own). Binding the prepared
// script cold costs the graph alone: nodes, Inputs and Roots in one slab
// each, the re-dated schemas in one, the dated strings in one arena, the
// expression spines in one and the integer literals in one (7; 17 with a
// BinaryExpr per spine node and an IntLit per placeholder; compiling the
// substituted source costs 249).
const (
	recurrenceAllocCeiling  = 0
	instantiateAllocCeiling = 0
	instanceAllocCeiling    = 14
	bindAllocCeiling        = 8
)

// TestInstantiateAllocBudget gates what a day's job instances allocate:
// a recurrence, Instantiate of a memoized instance, and building the
// instance of a (template, date) seen for the first time, with and
// without the rest of the instance around its Bind.
func TestInstantiateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	gen, err := New(Config{Seed: 20211101, NumTemplates: 1})
	if err != nil {
		t.Fatal(err)
	}
	tpl := gen.Templates()[0]
	first, err := tpl.Instantiate(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sink *Job
	last := tpl.DailyInstances - 1
	got := testing.AllocsPerRun(100, func() {
		if sink, err = tpl.Instantiate(3, last); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: %.0f allocs per recurrence", sink.ID, got)
	if got > recurrenceAllocCeiling {
		t.Errorf("%.0f allocs per recurrence, ceiling %d", got, recurrenceAllocCeiling)
	}
	got = testing.AllocsPerRun(100, func() {
		if sink, err = tpl.Instantiate(3, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: %.0f allocs per Instantiate of a memoized instance", tpl.ID, got)
	if got > instantiateAllocCeiling {
		t.Errorf("%.0f allocs per memoized Instantiate, ceiling %d", got, instantiateAllocCeiling)
	}
	got = testing.AllocsPerRun(100, func() {
		if _, err = tpl.instantiate(3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s (%d literals, %d tables, %d sites, %d jobs): %.0f allocs per instance built",
		tpl.ID, len(tpl.Literals), len(tpl.Tables), len(tpl.TrueSel), tpl.DailyInstances, got)
	if got > instanceAllocCeiling {
		t.Errorf("%.0f allocs per instance built, ceiling %d", got, instanceAllocCeiling)
	}
	values := []string{dateStamp(3)}
	for i := range tpl.Literals {
		values = append(values, strconv.Itoa(100+i))
	}
	got = testing.AllocsPerRun(100, func() {
		if _, err := tpl.prepared.Bind(tpl.names, values); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s (%d logical nodes): %.0f allocs per cold Bind", tpl.ID, len(first.Graph.Nodes()), got)
	if got > bindAllocCeiling {
		t.Errorf("%.0f allocs per Bind, ceiling %d", got, bindAllocCeiling)
	}
}

// dateStamp is appendDateStamp into a fresh string.
func dateStamp(date int) string {
	var buf [24]byte
	return string(appendDateStamp(buf[:0], date))
}

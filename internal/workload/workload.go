// Package workload generates synthetic recurring SCOPE workloads: job
// templates (scripts with a fixed operator shape), daily instances with
// varying input cardinalities, selectivities and filter constants, the
// ground-truth environment the execution simulator consumes, and the
// deliberately erroneous optimizer statistics that make estimated costs
// diverge from real performance.
//
// The paper reports that more than 60% of SCOPE jobs are recurring
// template-scripts; QO-Advisor keys its hints on template identity, so
// template structure is the central concept here.
package workload

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qoadvisor/internal/exec"
	"qoadvisor/internal/optimizer"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/scope"
)

// TableDef describes one synthetic base table of a template.
type TableDef struct {
	// PathPattern contains "@DATE@", substituted per instance.
	PathPattern string
	Columns     []scope.ColDef
	// TrueRows is the base true row count; daily instances vary around it.
	TrueRows float64
	// TrueNDV maps column name to true distinct count.
	TrueNDV map[string]float64
	// StatsRowFactor and StatsNDVFactor are the template's fixed
	// estimation errors: the optimizer sees TrueRows*StatsRowFactor.
	StatsRowFactor float64
	StatsNDVFactor map[string]float64

	// statsNDV is the distinct counts the optimizer sees: TrueNDV scaled
	// by StatsNDVFactor, the same on every date, so every instance's
	// statistics share it read-only.
	statsNDV map[string]float64
}

// appendDateStamp appends what "@DATE@" stands for on a date:
// 20211100+date, zero-padded to eight digits.
func appendDateStamp(dst []byte, date int) []byte {
	if v := 20211100 + date; v >= 1e7 {
		return strconv.AppendInt(dst, int64(v), 10) // eight digits or more: nothing to pad
	}
	return fmt.Appendf(dst, "%08d", 20211100+date)
}

// datePlaceholder is what a table's PathPattern holds for its date.
var datePlaceholder = []string{"@DATE@"}

// appendSubstitute appends to dst pattern with every occurrence of olds[i]
// replaced by news[i], in one pass. Placeholders are "@...@" tokens, none
// a prefix of another, and no replacement contains '@', so this is what
// replacing them one after another in any order produces.
func appendSubstitute[S string | []byte](dst []byte, pattern string, olds []string, news []S) []byte {
	for {
		i := strings.IndexByte(pattern, '@')
		if i < 0 {
			break
		}
		dst = append(dst, pattern[:i]...)
		pattern = pattern[i:]
		k := 0
		for k < len(olds) && (olds[k] == "" || !strings.HasPrefix(pattern, olds[k])) {
			k++
		}
		if k == len(olds) {
			dst = append(dst, '@')
			pattern = pattern[1:]
			continue
		}
		dst = append(dst, news[k]...)
		pattern = pattern[len(olds[k]):]
	}
	return append(dst, pattern...)
}

// Template is a recurring job template. It memoizes its instances on at
// most two dates: in the daily loop a day's and the next day's, which
// flighting instantiates for its validation runs before that day's
// JobsForDay. JobsForDay(d) first retires every date before d.
type Template struct {
	ID   string
	Name string // normalized job name
	// ScriptPattern is the script source with "@DATE@" placeholders in
	// paths and "@LIT<i>@" placeholders for varying literals.
	ScriptPattern string
	Tables        []TableDef
	// TrueSel maps site-key patterns (with "@LIT<i>@" placeholders) to
	// the template's true selectivity for that operator site.
	TrueSel map[string]float64
	// Literals lists the placeholder names in order.
	Literals []string
	// DailyInstances is how many instances arrive per day.
	DailyInstances int
	// Tokens is the job's parallelism allocation.
	Tokens int
	// Hash is the template hash of the compiled graph (literals
	// normalized), QO-Advisor's hint key.
	Hash uint64

	// prepared is ScriptPattern compiled once; an instance binds the
	// date stamp and its literals to it. names are the placeholders it
	// binds, "DATE" and then Literals, without their '@'s.
	prepared *scope.Prepared
	names    []string
	// sites are TrueSel's keys, sorted: the order an instance writes its
	// site keys in.
	sites []string
	// strBytes bounds the bytes of an instance's dated strings, its own
	// and its bound graph's, on any date whose stamp is eight digits: what
	// a batch reserves in its string arena for the instance.
	strBytes int
	// memo holds the instances of at most two dates, older built first,
	// under mu: every job of an instance is an element of the instance's
	// job slab, one per recurrence. An instance a lookup's miss or
	// Prefetch builds goes under mu into an empty slot, or else in place of
	// the older. JobsForDay(d) empties the slots dated before d: nothing
	// asks for them again. lookups is the generator's count.
	mu      sync.Mutex
	memo    [2]dated
	lookups *lookups
}

// dated is a template's instance on one date; jobs is nil in an empty
// memo slot, one never filled or retired by JobsForDay. prefetched marks
// an instance Prefetch built that no lookup has handed out yet: its build
// counted the miss its first lookup would have.
type dated struct {
	date       int
	jobs       []Job
	prefetched bool
}

// lookups counts a generator's instance lookups, every template's: a miss
// builds an instance, binding its graph. An instance Prefetch builds
// counts as the miss of its first lookup, which counts nothing itself, so
// the counts are what they would be had the lookup built it.
type lookups struct{ hits, misses atomic.Uint64 }

// Job is one instance of a template on a given date. Graph, Truth, Stats
// and the rewrite memo are the (template, date) instance's, shared by all
// its jobs: each points into the instance's facts. The job itself is an
// element of the instance's job slab, the one *Job JobsForDay and
// Instantiate hand out for its (template, date, seq) while the instance
// is memoized; nothing writes any of it once built.
type Job struct {
	ID       string
	Template *Template
	Date     int
	Seq      int
	Graph    *scope.Graph
	Truth    *exec.Truth
	Stats    optimizer.StatsProvider
	Tokens   int
	// facts is the instance's, which holds Graph's header, Truth, Stats
	// and the rewrite memo.
	facts *facts
}

// CompileOptions returns the options the job compiles under with catalog
// cat: its statistics, its token allocation, and its instance's rewrite
// memo, which only ever sees those statistics.
func (j *Job) CompileOptions(cat *rules.Catalog) optimizer.Options {
	return optimizer.Options{Catalog: cat, Stats: j.Stats, Tokens: j.Tokens, Cache: &j.facts.rewrites}
}

// Generator produces templates and daily job instances deterministically
// from a seed.
type Generator struct {
	seed      int64
	templates []*Template
	lookups   lookups
}

// Config controls workload generation.
type Config struct {
	Seed         int64
	NumTemplates int
	// MaxDailyInstances caps per-template daily recurrences (>=1).
	MaxDailyInstances int
}

// hashed returns a deterministic sub-seed from parts: FNV-1a of their
// concatenation.
func hashed(parts ...string) int64 {
	h := scope.FNVOffset64
	for _, p := range parts {
		h = scope.FNV1a(h, p)
	}
	return int64(h)
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
}

func lognormal(rng *rand.Rand, sigma float64) float64 {
	return math.Exp(rng.NormFloat64() * sigma)
}

// New builds a generator with cfg.NumTemplates templates. Template
// construction is validated: every generated script compiles.
func New(cfg Config) (*Generator, error) {
	if cfg.NumTemplates <= 0 {
		cfg.NumTemplates = 50
	}
	if cfg.MaxDailyInstances <= 0 {
		cfg.MaxDailyInstances = 3
	}
	g := &Generator{seed: cfg.Seed}
	for i := 0; i < cfg.NumTemplates; i++ {
		t, err := buildTemplate(cfg.Seed, i, cfg.MaxDailyInstances, &g.lookups)
		if err != nil {
			return nil, fmt.Errorf("workload: template %d: %w", i, err)
		}
		g.templates = append(g.templates, t)
	}
	// Record each template hash from day 1's instance, every template's
	// built in one batch.
	Prefetch(1, g.templates)
	for i, t := range g.templates {
		j, err := t.Instantiate(1, 0)
		if err != nil {
			return nil, fmt.Errorf("workload: template %d: %w", i, err)
		}
		t.Hash = j.Graph.TemplateHash()
	}
	return g, nil
}

// Templates returns the generated templates.
func (g *Generator) Templates() []*Template { return g.templates }

// CompileCacheStats counts the templates' instance lookups so far: a miss
// builds an instance, binding its graph.
func (g *Generator) CompileCacheStats() optimizer.CompileCacheStats {
	return optimizer.CompileCacheStats{Hits: g.lookups.hits.Load(), Misses: g.lookups.misses.Load()}
}

// JobsForDay returns every template's jobs on the given date. The day
// loop has moved on to date, so each template first retires the
// instances of earlier dates it memoizes; the next date's, which
// flighting may already have built, stays. Prefetch then builds every
// instance of the date that a memo lacks in one batch, and each template
// hands out its jobs from its memo, or builds its instance alone if the
// memo lost it in between.
func (g *Generator) JobsForDay(date int) ([]*Job, error) {
	for _, t := range g.templates {
		t.retire(date)
	}
	Prefetch(date, g.templates)
	return g.jobsOn(date)
}

// jobsOn is JobsForDay's last step: every template's jobs on date, from
// its memo or else built alone.
func (g *Generator) jobsOn(date int) ([]*Job, error) {
	n := 0
	for _, t := range g.templates {
		n += t.DailyInstances
	}
	jobs := make([]*Job, 0, n)
	for _, t := range g.templates {
		inst, err := t.instance(date)
		if err != nil {
			return nil, err
		}
		for k := range inst {
			jobs = append(jobs, &inst[k])
		}
	}
	return jobs, nil
}

// Prefetch builds, in one batch, the instance on date of every template
// of ts whose memo lacks it, a template listed twice once, and memoizes
// it; it hands nothing out. It works in two passes: the first reads each
// memo under its template's lock and reserves room for a missing
// instance, the second checks the memo again under the lock and builds
// the instance in its room. Room reserved for an instance another
// goroutine built in between stays unused. An instance whose build fails
// is left out of the memo: a lookup then builds it alone and reports the
// error.
func Prefetch(date int, ts []*Template) {
	b, missing := reserveMissing(date, ts)
	buildReserved(date, &b, missing)
}

// reserveMissing is Prefetch's first pass: the distinct templates of ts
// whose memo lacks their instance on date, and a batch with room for each.
func reserveMissing(date int, ts []*Template) (b batch, missing []*Template) {
	missing = make([]*Template, 0, len(ts))
	for _, t := range ts {
		if !slices.Contains(missing, t) && !t.holds(date) {
			b.reserve(t)
			missing = append(missing, t)
		}
	}
	b.make()
	return b, missing
}

// buildReserved is Prefetch's second pass: each template of missing
// builds its instance on date in b's room for it, unless its memo holds
// one by now.
func buildReserved(date int, b *batch, missing []*Template) {
	for _, t := range missing {
		t.fill(date, b)
	}
}

// appendJobID appends to dst the ID of job seq of template on date.
func appendJobID(dst []byte, template string, date, seq int) []byte {
	dst = appendDateStamp(append(dst, 'J'), date)
	dst = append(dst, '_')
	dst = append(dst, template...)
	dst = append(dst, '_')
	return strconv.AppendInt(dst, int64(seq), 10)
}

// Instantiate returns job seq, in [0, DailyInstances), of the template's
// instance on date. The instance is built once per (template, date) and
// its jobs are handed out, not copied; a miss builds it alone, a batch of
// one.
func (t *Template) Instantiate(date, seq int) (*Job, error) {
	if seq < 0 || seq >= t.DailyInstances {
		return nil, fmt.Errorf("workload: %s runs jobs 0 to %d a day, not %d", t.ID, t.DailyInstances-1, seq)
	}
	jobs, err := t.instance(date)
	if err != nil {
		return nil, err
	}
	return &jobs[seq], nil
}

// holds reports whether the memo holds the template's instance on date.
func (t *Template) holds(date int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.memoized(date) != nil
}

// memoized returns the memo slot holding date, or nil. t.mu is held.
func (t *Template) memoized(date int) *dated {
	for i := range t.memo {
		if m := &t.memo[i]; m.jobs != nil && m.date == date {
			return m
		}
	}
	return nil
}

// retire empties the memo slots dated before date.
func (t *Template) retire(date int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, m := range t.memo {
		if m.date < date {
			t.memo[i] = dated{}
		}
	}
}

// instance returns the job slab of the template's instance on date. A
// miss builds the instance alone.
func (t *Template) instance(date int) ([]Job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.memoized(date); m != nil {
		if m.prefetched {
			m.prefetched = false
		} else {
			t.lookups.hits.Add(1)
		}
		return m.jobs, nil
	}
	t.lookups.misses.Add(1)
	var lone batch
	lone.reserve(t)
	lone.make()
	jobs, err := t.instantiate(date, &lone)
	if err != nil {
		return nil, err
	}
	t.memoize(dated{date: date, jobs: jobs})
	return jobs, nil
}

// fill builds the template's instance on date in the room b reserved for
// it and memoizes it as prefetched, unless the memo holds the date
// already or the build fails.
func (t *Template) fill(date int, b *batch) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.memoized(date) != nil {
		return
	}
	jobs, err := t.instantiate(date, b)
	if err != nil {
		return
	}
	t.lookups.misses.Add(1)
	t.memoize(dated{date: date, jobs: jobs, prefetched: true})
}

// memoize puts m into an empty slot, or else in place of the older. t.mu
// is held.
func (t *Template) memoize(m dated) {
	if t.memo[1].jobs != nil {
		t.memo[0] = t.memo[1]
	}
	t.memo[1] = m
}

// batch is the storage a run of instances is built in and keeps what they
// accumulate: their bound graphs' slabs, with the string arena every dated
// string of theirs is cut from, one slab each of keys, floats, facts
// blocks and jobs, and the store their rewrite memos keep their rewrites
// in, with the column lists and predicates those rewrites add. reserve
// counts one instance of a template, make allocates what was counted, one
// allocation per kind, and instantiate cuts each instance's room as
// capped subslices. The sizes are the template's: its prepared script's
// counts, len(Tables), len(sites), DailyInstances and its strings' bound,
// strBytes, so the arena's one block holds every instance's strings; the
// store's first chunks hold one rewrite of each instance's bound graph,
// made when a memo first keeps one. A lone instance is a batch of one,
// which keeps two strings of its own — its dated strings and its bound
// graph's — and its rewrites on the heap: an arena block and a store would
// cost as much. Every instance of a batch keeps the whole batch alive,
// string block and store and all, and retiring the last of them frees it.
// A batch must not be copied once an instance is built in it.
type batch struct {
	graphs   scope.Slabs
	keys     []string
	floats   []float64
	facts    []facts
	jobs     []Job
	rewrites *scope.Store // nil in a batch of one
	reserved instanceSizes
}

// instanceSizes counts the elements of an instance's slabs beside its
// graph's, and the bytes of its strings.
type instanceSizes struct{ keys, floats, facts, jobs, bytes int }

// reserve counts room in the next make for one instance of t.
func (b *batch) reserve(t *Template) {
	b.graphs.Reserve(t.prepared)
	nt, ns := len(t.Tables), len(t.sites)
	b.reserved.keys += nt + ns
	b.reserved.floats += 2*nt + ns
	b.reserved.facts++
	b.reserved.jobs += t.DailyInstances
	b.reserved.bytes += t.strBytes
}

// make allocates the room reserve counted, and a string arena of one block
// and a store sized from the graphs' count when it counted more than one
// instance.
func (b *batch) make() {
	z := b.reserved
	strBytes := 0
	if z.facts > 1 {
		b.rewrites = scope.NewStore(&b.graphs)
		strBytes = z.bytes
	}
	b.graphs.Make(strBytes)
	b.keys, b.floats = make([]string, z.keys), make([]float64, z.floats)
	b.facts, b.jobs = make([]facts, z.facts), make([]Job, z.jobs)
	b.reserved = instanceSizes{}
}

// cut cuts the first n elements off *slab as a capped subslice.
func cut[T any](slab *[]T, n int) []T {
	c := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return c
}

// instanceScratch is one instantiate's pooled scratch: the bytes of its
// arena, where each piece of them ends, the values' pieces while the
// arena is written, and then every piece cut from the arena's string.
type instanceScratch struct {
	buf    []byte
	ends   []int
	values [][]byte
	pieces []string
}

var scratchPool = sync.Pool{New: func() any { return new(instanceScratch) }}

// cut ends a piece of the arena at the end of buf.
func (s *instanceScratch) cut() { s.ends = append(s.ends, len(s.buf)) }

// split appends to dst the pieces of arena that end at ends.
func split[S string | []byte](dst []S, arena S, ends []int) []S {
	start := 0
	for _, end := range ends {
		dst = append(dst, arena[start:end])
		start = end
	}
	return dst
}

func (s *instanceScratch) release() {
	clear(s.values)
	clear(s.pieces)
	s.buf, s.ends, s.values, s.pieces = s.buf[:0], s.ends[:0], s.values[:0], s.pieces[:0]
	scratchPool.Put(s)
}

// instantiate builds the template's instance on date in the room b
// reserved for it — concrete literals, the bound graph, per-day true row
// counts, jittered selectivities, the optimizer-visible statistics, an
// empty rewrite memo keeping its rewrites in b's store and its slab of
// DailyInstances jobs. It cuts everything from b: its dated strings and
// its bound graph's are two strings cut from b's arena, which in a batch
// of one are two allocations of their own.
func (t *Template) instantiate(date int, b *batch) ([]Job, error) {
	// Every draw below is the first values of its own stream, seeded by
	// what it is for: one pooled generator, re-seeded per draw, each seed
	// O(1) (exec.SeededRand's source computes only the state words a
	// draw reads).
	rng := exec.SeededRand(0)
	defer exec.ReleaseRand(rng)
	day := strconv.Itoa(date)
	draw := func(kind, what string) *rand.Rand {
		rng.Seed(hashed(kind, t.ID, what, day))
		return rng
	}

	// Every dated string of the instance is a piece of one arena, in this
	// order: the values bound — the date stamp, then the literals,
	// deterministic per (template, literal, date) — the table paths, the
	// selectivity site keys and the job IDs.
	s := scratchPool.Get().(*instanceScratch)
	defer s.release()
	s.buf = appendDateStamp(s.buf, date)
	s.cut()
	for _, lit := range t.Literals {
		s.buf = strconv.AppendInt(s.buf, int64(10+draw("lit", lit).Intn(9000)), 10)
		s.cut()
	}
	s.values = split(s.values, s.buf, s.ends)
	for _, tab := range t.Tables {
		s.buf = appendSubstitute(s.buf, tab.PathPattern, datePlaceholder, s.values[:1])
		s.cut()
	}
	for _, site := range t.sites {
		s.buf = appendSubstitute(s.buf, site, t.Literals, s.values[1:])
		s.cut()
	}
	for seq := 0; seq < t.DailyInstances; seq++ {
		s.buf = appendJobID(s.buf, t.ID, date, seq)
		s.cut()
	}
	s.pieces = split(s.pieces, b.graphs.String(s.buf), s.ends)
	nt, ns := len(t.Tables), len(t.sites)
	values, pieces := s.pieces[:len(t.names)], s.pieces[len(t.names):]
	ids := pieces[nt+ns:]

	// The instance's facts hold its bound graph's header and its rewrite
	// memo by value, beside its truth and statistics: one block.
	f := &cut(&b.facts, 1)[0]
	if err := t.prepared.BindInto(&f.graph, &b.graphs, t.names, values); err != nil {
		return nil, fmt.Errorf("workload: instance of %s does not compile: %w", t.ID, err)
	}
	f.rewrites.KeepIn(b.rewrites)

	// The truth and statistics follow the template's tables and then its
	// sites: the keys are the dated paths and site keys, copied out of
	// the pooled pieces, and the floats the true rows, the estimated rows
	// and the true selectivities.
	keys := cut(&b.keys, nt+ns)
	copy(keys, pieces)
	vals := cut(&b.floats, 2*nt+ns)
	for i, tab := range t.Tables {
		dayFactor := lognormal(draw("rows", tab.PathPattern), 0.35)
		vals[i] = tab.TrueRows * dayFactor
		vals[nt+i] = math.Max(1, vals[i]*tab.StatsRowFactor*lognormal(draw("statdrift", tab.PathPattern), 0.30))
	}
	for i, sitePattern := range t.sites {
		jitter := lognormal(draw("sel", sitePattern), 0.25)
		vals[2*nt+i] = min(t.TrueSel[sitePattern]*jitter, 1)
	}
	f.truth = exec.Truth{
		Paths: keys[:nt:nt], Rows: vals[:nt:nt],
		Sites: keys[nt:], Sel: vals[2*nt:],
		JitterSeed: hashed("jitter", t.ID),
	}
	f.stats = instanceStats{paths: keys[:nt:nt], rows: vals[nt : 2*nt : 2*nt], tables: t.Tables}

	jobs := cut(&b.jobs, t.DailyInstances)
	for seq := range jobs {
		jobs[seq] = Job{
			ID:       ids[seq],
			Template: t,
			Date:     date,
			Seq:      seq,
			Graph:    &f.graph,
			Truth:    &f.truth,
			Stats:    &f.stats,
			Tokens:   t.Tokens,
			facts:    f,
		}
	}
	return jobs, nil
}

// facts is what an instance's jobs share, made in one allocation: the
// header of its bound graph, its truth and statistics — both read the
// instance's one slab of keys and one of floats — and its rewrite memo,
// empty until the instance first compiles.
type facts struct {
	graph    scope.Graph
	truth    exec.Truth
	stats    instanceStats
	rewrites optimizer.CompileCache
}

// instanceStats is the optimizer-visible statistics of an instance:
// estimated rows parallel to its dated table paths, and the template's
// tables, whose distinct counts they share, by table position.
type instanceStats struct {
	paths  []string
	rows   []float64
	tables []TableDef
}

// TableStats implements optimizer.StatsProvider. The last table with the
// path wins, as it did when the statistics were a map.
func (st *instanceStats) TableStats(path string) (optimizer.TableStats, bool) {
	for i := len(st.paths) - 1; i >= 0; i-- {
		if st.paths[i] == path {
			return optimizer.TableStats{Rows: st.rows[i], NDV: st.tables[i].statsNDV}, true
		}
	}
	return optimizer.TableStats{}, false
}

// --- Template construction ---

// buildTemplate synthesizes one template. The script is built
// programmatically (schema-tracked), so generated scripts always compile;
// construction is verified anyway.
func buildTemplate(seed int64, idx, maxDaily int, lookups *lookups) (*Template, error) {
	rng := exec.SeededRand(hashed("template", strconv.FormatInt(seed, 10), " ", strconv.Itoa(idx)))
	defer exec.ReleaseRand(rng)
	b := &scriptBuilder{
		rng:      rng,
		tID:      fmt.Sprintf("T%03d", idx),
		trueSel:  make(map[string]float64),
		rowsets:  make(map[string]*rowsetInfo),
		consumed: make(map[string]bool),
	}
	b.build()

	t := &Template{
		ID:             b.tID,
		Name:           fmt.Sprintf("Prod_%s_Pipeline", b.tID),
		ScriptPattern:  b.script.String(),
		Tables:         b.tables,
		TrueSel:        b.trueSel,
		Literals:       b.literals,
		DailyInstances: 1 + rng.Intn(maxDaily),
		Tokens:         50 + rng.Intn(4)*50,
		names:          []string{"DATE"},
		lookups:        lookups,
	}
	for _, lit := range t.Literals {
		t.names = append(t.names, strings.Trim(lit, "@"))
	}
	for i := range t.Tables {
		tab := &t.Tables[i]
		tab.statsNDV = make(map[string]float64, len(tab.TrueNDV))
		for col, v := range tab.TrueNDV {
			f := tab.StatsNDVFactor[col]
			if f == 0 {
				f = 1
			}
			tab.statsNDV[col] = math.Max(1, v*f)
		}
	}
	t.sites = slices.Sorted(maps.Keys(t.TrueSel))
	var err error
	if t.prepared, err = scope.Prepare(t.ScriptPattern); err != nil {
		return nil, fmt.Errorf("workload: template %s does not compile: %w", t.ID, err)
	}
	t.strBytes = t.stringBytes()
	return t, nil
}

// stringBytes bounds the bytes of an instance's dated strings on a date
// whose stamp is eight digits: the pieces instantiate writes, and its
// bound graph's (Prepared.StringBytes), with every value at its longest —
// the stamp's eight digits and a literal draw's four.
func (t *Template) stringBytes() int {
	values, widths := make([]string, len(t.names)), make([]int, len(t.names))
	for k := range values {
		values[k], widths[k] = "9999", 4
	}
	values[0], widths[0] = "99999999", 8
	var buf []byte
	for _, v := range values {
		buf = append(buf, v...)
	}
	for _, tab := range t.Tables {
		buf = appendSubstitute(buf, tab.PathPattern, datePlaceholder, values[:1])
	}
	for _, site := range t.sites {
		buf = appendSubstitute(buf, site, t.Literals, values[1:])
	}
	for seq := 0; seq < t.DailyInstances; seq++ {
		buf = appendJobID(buf, t.ID, 0, seq)
	}
	return len(buf) + t.prepared.StringBytes(t.names, widths)
}

// rowsetInfo tracks the schema of a named rowset during generation.
type rowsetInfo struct {
	name string
	cols []scope.ColDef
	// table is set for raw extracts, letting the builder pick join keys
	// with matching NDVs.
	keyCol string
	rows   float64 // rough true row estimate, to scale selectivities
}

type scriptBuilder struct {
	rng      *rand.Rand
	tID      string
	script   strings.Builder
	tables   []TableDef
	rowsets  map[string]*rowsetInfo
	consumed map[string]bool
	order    []string // rowset creation order
	litSeq   int
	literals []string
	trueSel  map[string]float64
	seq      int
}

func (b *scriptBuilder) newLit() string {
	name := fmt.Sprintf("@LIT%d@", b.litSeq)
	b.litSeq++
	b.literals = append(b.literals, name)
	return name
}

func (b *scriptBuilder) addRowset(info *rowsetInfo) {
	b.rowsets[info.name] = info
	b.order = append(b.order, info.name)
}

var colTypes = []scope.ColType{
	scope.TypeInt, scope.TypeLong, scope.TypeDouble, scope.TypeString, scope.TypeFloat,
}

// build assembles the whole script.
func (b *scriptBuilder) build() {
	nTables := 1 + b.rng.Intn(3)
	for i := 0; i < nTables; i++ {
		b.addExtract(i)
	}
	nTransforms := 3 + b.rng.Intn(4)
	for i := 0; i < nTransforms; i++ {
		b.addTransform()
	}
	b.addOutputs()
}

func (b *scriptBuilder) addExtract(i int) {
	name := fmt.Sprintf("raw%d", i)
	nCols := 3 + b.rng.Intn(4)
	cols := make([]scope.ColDef, 0, nCols+1)
	// Every table gets a join key column.
	keyCol := fmt.Sprintf("%s_key", name)
	cols = append(cols, scope.ColDef{Name: keyCol, Type: scope.TypeLong})
	for c := 0; c < nCols; c++ {
		cols = append(cols, scope.ColDef{
			Name: fmt.Sprintf("%s_c%d", name, c),
			Type: colTypes[b.rng.Intn(len(colTypes))],
		})
	}
	trueRows := logUniform(b.rng, 2e5, 3e7)
	ndv := make(map[string]float64, len(cols))
	ndvErr := make(map[string]float64, len(cols))
	// Join keys share a universe so joins have sane selectivity.
	ndv[keyCol] = logUniform(b.rng, 1e4, 1e6)
	for _, cd := range cols[1:] {
		switch cd.Type {
		case scope.TypeString:
			ndv[cd.Name] = logUniform(b.rng, 10, 1e5)
		default:
			ndv[cd.Name] = logUniform(b.rng, 10, 1e6)
		}
	}
	// Draw in column order, not map order: iterating the map here would
	// consume b.rng in a run-dependent order and make the generated
	// workload itself nondeterministic across processes.
	ndvErr[keyCol] = lognormal(b.rng, 0.5)
	for _, cd := range cols[1:] {
		ndvErr[cd.Name] = lognormal(b.rng, 0.5)
	}
	path := fmt.Sprintf("store/%s/%s_@DATE@.tsv", b.tID, name)
	b.tables = append(b.tables, TableDef{
		PathPattern:    path,
		Columns:        cols,
		TrueRows:       trueRows,
		TrueNDV:        ndv,
		StatsRowFactor: lognormal(b.rng, 0.45),
		StatsNDVFactor: ndvErr,
	})

	fmt.Fprintf(&b.script, "%s = EXTRACT ", name)
	for i, cd := range cols {
		if i > 0 {
			b.script.WriteString(", ")
		}
		fmt.Fprintf(&b.script, "%s:%s", cd.Name, cd.Type)
	}
	fmt.Fprintf(&b.script, " FROM \"%s\";\n", path)
	b.addRowset(&rowsetInfo{name: name, cols: cols, keyCol: keyCol, rows: trueRows})
}

// pickRowset selects an existing rowset, biased toward recent ones, and
// marks it consumed so that dead statements never arise (every sink is
// OUTPUT at the end).
func (b *scriptBuilder) pickRowset() *rowsetInfo {
	var i int
	if b.rng.Float64() < 0.5 {
		i = len(b.order) - 1 - b.rng.Intn(minI(len(b.order), 3))
	} else {
		i = b.rng.Intn(len(b.order))
	}
	name := b.order[i]
	b.consumed[name] = true
	return b.rowsets[name]
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// numericCols returns the numeric columns of a rowset.
func numericCols(cols []scope.ColDef) []scope.ColDef {
	var out []scope.ColDef
	for _, c := range cols {
		switch c.Type {
		case scope.TypeInt, scope.TypeLong, scope.TypeFloat, scope.TypeDouble:
			out = append(out, c)
		}
	}
	return out
}

func (b *scriptBuilder) nextName(prefix string) string {
	b.seq++
	return fmt.Sprintf("%s%d", prefix, b.seq)
}

func (b *scriptBuilder) addTransform() {
	switch b.rng.Intn(10) {
	case 0, 1, 2:
		b.addFilterSelect()
	case 3, 4, 5:
		b.addJoinSelect()
	case 6, 7:
		b.addAggSelect()
	case 8:
		b.addUnion()
	default:
		b.addReduce()
	}
}

// predicate generates a WHERE conjunct over a numeric column, records its
// true selectivity under the site-key pattern, and returns its source.
func (b *scriptBuilder) predicate(rs *rowsetInfo, qualifier string) (string, bool) {
	nums := numericCols(rs.cols)
	if len(nums) == 0 {
		return "", false
	}
	col := nums[b.rng.Intn(len(nums))]
	lit := b.newLit()
	ref := col.Name
	// Predicates referencing a qualified column resolve to the bare
	// merged name at compile time; site keys use the bare name.
	_ = qualifier
	var src string
	var sel float64
	if b.rng.Float64() < 0.3 {
		src = fmt.Sprintf("%s == %s", ref, lit)
		sel = logUniform(b.rng, 0.001, 0.08)
	} else {
		op := []string{">", "<", ">=", "<="}[b.rng.Intn(4)]
		src = fmt.Sprintf("%s %s %s", ref, op, lit)
		sel = logUniform(b.rng, 0.05, 0.9)
	}
	// Site key: the compiled conjunct renders as "(ref op lit)".
	var siteExpr string
	if strings.Contains(src, "==") {
		siteExpr = fmt.Sprintf("(%s == %s)", ref, lit)
	} else {
		parts := strings.SplitN(src, " ", 3)
		siteExpr = fmt.Sprintf("(%s %s %s)", parts[0], parts[1], parts[2])
	}
	b.trueSel["filter:"+siteExpr] = sel
	return src, true
}

func (b *scriptBuilder) addFilterSelect() {
	in := b.pickRowset()
	name := b.nextName("rs")
	// Project a random subset of columns (keep the key when present).
	var kept []scope.ColDef
	for _, c := range in.cols {
		if c.Name == in.keyCol || b.rng.Float64() < 0.7 {
			kept = append(kept, c)
		}
	}
	if len(kept) == 0 {
		kept = in.cols[:1]
	}
	names := make([]string, len(kept))
	for i, c := range kept {
		names[i] = c.Name
	}
	fmt.Fprintf(&b.script, "%s = SELECT %s FROM %s", name, strings.Join(names, ", "), in.name)

	rows := in.rows
	nPreds := 1 + b.rng.Intn(2)
	var preds []string
	for i := 0; i < nPreds; i++ {
		if p, ok := b.predicate(in, ""); ok {
			preds = append(preds, p)
		}
	}
	if len(preds) > 0 {
		fmt.Fprintf(&b.script, " WHERE %s", strings.Join(preds, " AND "))
		rows *= 0.3
	}
	if b.rng.Float64() < 0.2 && len(numericCols(kept)) > 0 {
		sortCol := numericCols(kept)[0]
		fmt.Fprintf(&b.script, " ORDER BY %s DESC", sortCol.Name)
		if b.rng.Float64() < 0.6 {
			fmt.Fprintf(&b.script, " TOP %d", 100*(1+b.rng.Intn(50)))
		}
	}
	b.script.WriteString(";\n")
	b.addRowset(&rowsetInfo{name: name, cols: kept, keyCol: keyIfKept(kept, in.keyCol), rows: rows})
}

func keyIfKept(cols []scope.ColDef, key string) string {
	for _, c := range cols {
		if c.Name == key {
			return key
		}
	}
	return ""
}

func (b *scriptBuilder) addJoinSelect() {
	// Need two rowsets with key columns and disjoint column names.
	var candidates []*rowsetInfo
	for _, n := range b.order {
		rs := b.rowsets[n]
		if rs.keyCol != "" {
			candidates = append(candidates, rs)
		}
	}
	if len(candidates) < 2 {
		b.addFilterSelect()
		return
	}
	l := candidates[b.rng.Intn(len(candidates))]
	r := candidates[b.rng.Intn(len(candidates))]
	if l == r || sharesColumns(l, r) {
		b.addFilterSelect()
		return
	}
	b.consumed[l.name] = true
	b.consumed[r.name] = true
	name := b.nextName("rs")
	// Keep a subset of both sides.
	var kept []scope.ColDef
	var names []string
	for _, c := range l.cols {
		if c.Name == l.keyCol || b.rng.Float64() < 0.6 {
			kept = append(kept, c)
			names = append(names, "a."+c.Name)
		}
	}
	// A third of joins keep no right-side columns at all: pure
	// existence-filter joins, the natural semi-join-reduction targets.
	if b.rng.Float64() > 0.35 {
		nRight := 0
		for _, c := range r.cols {
			if c.Name != r.keyCol && b.rng.Float64() < 0.5 {
				kept = append(kept, c)
				names = append(names, "b."+c.Name)
				nRight++
			}
		}
		if nRight == 0 && len(r.cols) > 1 {
			c := r.cols[1]
			kept = append(kept, c)
			names = append(names, "b."+c.Name)
		}
	}
	joinKind := "JOIN"
	if b.rng.Float64() < 0.15 {
		joinKind = "LEFT JOIN"
	}
	fmt.Fprintf(&b.script, "%s = SELECT %s FROM %s AS a %s %s AS b ON a.%s == b.%s",
		name, strings.Join(names, ", "), l.name, joinKind, r.name, l.keyCol, r.keyCol)

	// True join selectivity: fanout per left row over the right side.
	fanout := logUniform(b.rng, 0.2, 4)
	sel := fanout / math.Max(r.rows, 1)
	if sel > 1 {
		sel = 1
	}
	site := fmt.Sprintf("join:(%s == %s)", l.keyCol, r.keyCol)
	b.trueSel[site] = sel

	if b.rng.Float64() < 0.4 {
		if p, ok := b.predicate(l, "a"); ok {
			fmt.Fprintf(&b.script, " WHERE %s", p)
		}
	}
	b.script.WriteString(";\n")
	outRows := l.rows * fanout
	b.addRowset(&rowsetInfo{name: name, cols: kept, keyCol: keyIfKept(kept, l.keyCol), rows: outRows})
}

func sharesColumns(a, c *rowsetInfo) bool {
	set := make(map[string]bool, len(a.cols))
	for _, col := range a.cols {
		set[col.Name] = true
	}
	for _, col := range c.cols {
		if set[col.Name] {
			return true
		}
	}
	return false
}

func (b *scriptBuilder) addAggSelect() {
	in := b.pickRowset()
	nums := numericCols(in.cols)
	if len(nums) == 0 || len(in.cols) < 2 {
		b.addFilterSelect()
		return
	}
	name := b.nextName("rs")
	groupCol := in.cols[b.rng.Intn(len(in.cols))]
	aggCol := nums[b.rng.Intn(len(nums))]
	sumName := fmt.Sprintf("sum_%s", aggCol.Name)
	if sumName == groupCol.Name {
		sumName = fmt.Sprintf("sum%d_%s", b.seq, aggCol.Name)
	}
	cntName := fmt.Sprintf("cnt_%d", b.seq)
	fmt.Fprintf(&b.script, "%s = SELECT %s, SUM(%s) AS %s, COUNT(*) AS %s FROM %s GROUP BY %s",
		name, groupCol.Name, aggCol.Name, sumName, cntName, in.name, groupCol.Name)

	frac := logUniform(b.rng, 0.001, 0.4)
	b.trueSel["agg:"+groupCol.Name] = frac

	if b.rng.Float64() < 0.3 {
		lit := b.newLit()
		fmt.Fprintf(&b.script, " HAVING COUNT(*) > %s", lit)
		b.trueSel[fmt.Sprintf("filter:(%s > %s)", cntName, lit)] = logUniform(b.rng, 0.1, 0.9)
	}
	b.script.WriteString(";\n")
	outCols := []scope.ColDef{
		{Name: groupCol.Name, Type: groupCol.Type},
		{Name: sumName, Type: scope.TypeDouble},
		{Name: cntName, Type: scope.TypeLong},
	}
	b.addRowset(&rowsetInfo{name: name, cols: outCols, rows: in.rows * frac})

	// Dashboards routinely slice aggregates by their group column; such
	// filters are the natural targets of the (off-by-default)
	// push-filter-below-aggregate rewrite.
	if isNumeric(groupCol.Type) && b.rng.Float64() < 0.5 {
		fname := b.nextName("rs")
		lit := b.newLit()
		op := []string{">", "<", ">="}[b.rng.Intn(3)]
		fmt.Fprintf(&b.script, "%s = SELECT %s, %s, %s FROM %s WHERE %s %s %s;\n",
			fname, groupCol.Name, sumName, cntName, name, groupCol.Name, op, lit)
		b.trueSel[fmt.Sprintf("filter:(%s %s %s)", groupCol.Name, op, lit)] = logUniform(b.rng, 0.05, 0.6)
		b.consumed[name] = true
		b.addRowset(&rowsetInfo{name: fname, cols: outCols, rows: in.rows * frac * 0.3})
	}
}

func isNumeric(t scope.ColType) bool {
	switch t {
	case scope.TypeInt, scope.TypeLong, scope.TypeFloat, scope.TypeDouble:
		return true
	}
	return false
}

// addUnion creates two compatible filtered branches over one input and
// unions them — the common "same template, different slices" pattern.
func (b *scriptBuilder) addUnion() {
	in := b.pickRowset()
	if len(numericCols(in.cols)) == 0 {
		b.addFilterSelect()
		return
	}
	names := make([]string, len(in.cols))
	for i, c := range in.cols {
		names[i] = c.Name
	}
	cols := strings.Join(names, ", ")
	n1, n2 := b.nextName("br"), b.nextName("br")
	uname := b.nextName("rs")
	p1, _ := b.predicate(in, "")
	p2, _ := b.predicate(in, "")
	fmt.Fprintf(&b.script, "%s = SELECT %s FROM %s WHERE %s;\n", n1, cols, in.name, p1)
	fmt.Fprintf(&b.script, "%s = SELECT %s FROM %s WHERE %s;\n", n2, cols, in.name, p2)
	all := " ALL"
	if b.rng.Float64() < 0.3 {
		all = ""
		key := make([]string, len(in.cols))
		copy(key, names)
		// Distinct site over the union's columns.
		b.trueSel["distinct:"+strings.Join(key, ",")] = logUniform(b.rng, 0.2, 0.95)
	}
	fmt.Fprintf(&b.script, "%s = %s UNION%s %s;\n", uname, n1, all, n2)
	b.consumed[n1] = true
	b.consumed[n2] = true
	b.addRowset(&rowsetInfo{name: uname, cols: in.cols, keyCol: in.keyCol, rows: in.rows * 0.8})
}

func (b *scriptBuilder) addReduce() {
	in := b.pickRowset()
	if in.keyCol == "" {
		b.addFilterSelect()
		return
	}
	name := b.nextName("rs")
	op := fmt.Sprintf("Reducer_%s_%d", b.tID, b.seq)
	outCols := []scope.ColDef{
		{Name: fmt.Sprintf("%s_rk", name), Type: scope.TypeLong},
		{Name: fmt.Sprintf("%s_rv", name), Type: scope.TypeDouble},
	}
	fmt.Fprintf(&b.script, "%s = REDUCE %s ON %s USING %s PRODUCE %s:long, %s:double;\n",
		name, in.name, in.keyCol, op, outCols[0].Name, outCols[1].Name)
	b.trueSel["reduce:"+op] = logUniform(b.rng, 0.05, 0.7)
	b.addRowset(&rowsetInfo{name: name, cols: outCols, rows: in.rows * 0.3})
}

func (b *scriptBuilder) addOutputs() {
	// Every sink rowset is written out, so scripts contain no dead
	// statements; SCOPE jobs commonly have several outputs.
	outIdx := 0
	for _, name := range b.order {
		if b.consumed[name] {
			continue
		}
		fmt.Fprintf(&b.script, "OUTPUT %s TO \"out/%s/result%d_@DATE@.tsv\";\n", name, b.tID, outIdx)
		outIdx++
	}
	if outIdx == 0 {
		last := b.order[len(b.order)-1]
		fmt.Fprintf(&b.script, "OUTPUT %s TO \"out/%s/result0_@DATE@.tsv\";\n", last, b.tID)
	}
}

package drift

import (
	"math"
	"math/rand"
	"testing"
)

// testConfig shortens the windows so transitions fire in tens of
// observations; the score threshold and the entry cap stay as shipped.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.minSamples = 8
	cfg.quarantineAfter = 4
	cfg.probationAfter = 4
	cfg.restoreAfter = 8
	cfg.gateCount = 1 // no sketch gating in unit tests
	return cfg
}

// TestDefaultConfigValues pins the safeguard's seven constants: no
// surface reports them, so nothing else would catch a moved value.
func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"threshold", cfg.threshold, 4},
		{"minSamples", float64(cfg.minSamples), 32},
		{"quarantineAfter", float64(cfg.quarantineAfter), 16},
		{"probationAfter", float64(cfg.probationAfter), 16},
		{"restoreAfter", float64(cfg.restoreAfter), 32},
		{"gateCount", float64(cfg.gateCount), 4},
		{"maxTemplates", float64(cfg.maxTemplates), 4096},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if d := NewDetector(Config{}); d.cfg != cfg {
		t.Errorf("zero Config runs with %+v, want DefaultConfig %+v", d.cfg, cfg)
	}
}

// feed drives rewards through the detector, committing every proposed
// transition, and returns the committed transitions.
func feed(d *Detector, hash uint64, rewards []float64) []Transition {
	var out []Transition
	for _, r := range rewards {
		if tr, ok := d.Observe(hash, r); ok {
			d.Commit(tr)
			out = append(out, tr)
		}
	}
	return out
}

func TestQuarantineOnRegression(t *testing.T) {
	d := NewDetector(testConfig())
	f := NewFlood(1, 1.0, 0.05)
	const tmpl = 0xabc
	feed(d, tmpl, f.Batch(200)) // establish baseline
	if st := d.StateOf(tmpl); st != StateHealthy {
		t.Fatalf("baseline state = %v, want healthy", st)
	}
	f.Shift(0.2) // collapse
	trs := feed(d, tmpl, f.Batch(200))
	if st := d.StateOf(tmpl); st != StateQuarantined {
		t.Fatalf("post-regression state = %v, want quarantined (transitions %v)", st, trs)
	}
	if len(trs) != 1 || trs[0].To != StateQuarantined || trs[0].From != StateSuspect {
		t.Fatalf("transitions = %+v, want one suspect->quarantined", trs)
	}
	if trs[0].Score < d.cfg.threshold {
		t.Fatalf("transition score %.2f below threshold %.2f", trs[0].Score, d.cfg.threshold)
	}
}

func TestProbationAndRestoreOnRecovery(t *testing.T) {
	d := NewDetector(testConfig())
	f := NewFlood(2, 1.0, 0.05)
	const tmpl = 0xdef
	feed(d, tmpl, f.Batch(200))
	f.Shift(0.2)
	feed(d, tmpl, f.Batch(200))
	if st := d.StateOf(tmpl); st != StateQuarantined {
		t.Fatalf("state = %v, want quarantined", st)
	}
	f.Shift(1.0) // recovery
	trs := feed(d, tmpl, f.Batch(600))
	if st := d.StateOf(tmpl); st != StateHealthy {
		t.Fatalf("post-recovery state = %v, want healthy (transitions %+v)", st, trs)
	}
	// The path must pass through probation: quarantined -> probation -> healthy.
	if len(trs) != 2 || trs[0].To != StateProbation || trs[1].To != StateHealthy {
		t.Fatalf("recovery transitions = %+v, want probation then healthy", trs)
	}
}

func TestHysteresisIgnoresOneNoisyBatch(t *testing.T) {
	d := NewDetector(testConfig())
	f := NewFlood(3, 1.0, 0.05)
	const tmpl = 0x123
	feed(d, tmpl, f.Batch(200))
	// A burst shorter than quarantineAfter must not quarantine.
	bad := NewFlood(4, 0.2, 0.05)
	trs := feed(d, tmpl, bad.Batch(3))
	if len(trs) != 0 {
		t.Fatalf("short burst produced transitions %+v", trs)
	}
	// Recovery clears suspicion without any durable transition.
	trs = feed(d, tmpl, f.Batch(100))
	if len(trs) != 0 {
		t.Fatalf("recovered burst produced transitions %+v", trs)
	}
	if st := d.StateOf(tmpl); st != StateHealthy {
		t.Fatalf("state = %v, want healthy", st)
	}
}

func TestUncommittedTransitionReproposed(t *testing.T) {
	d := NewDetector(testConfig())
	f := NewFlood(5, 1.0, 0.05)
	const tmpl = 0x777
	feed(d, tmpl, f.Batch(200))
	bad := NewFlood(6, 0.2, 0.05)
	var first *Transition
	for i := 0; i < 200; i++ {
		if tr, ok := d.Observe(tmpl, bad.Next()); ok {
			first = &tr
			break
		}
	}
	if first == nil {
		t.Fatal("no transition proposed")
	}
	// Simulate a journal failure: do NOT commit. The next degraded
	// observation must re-propose the same move.
	tr2, ok := d.Observe(tmpl, bad.Next())
	if !ok || tr2.To != StateQuarantined {
		t.Fatalf("re-proposal = %+v ok=%v, want quarantined proposal", tr2, ok)
	}
	if st := d.StateOf(tmpl); st != StateSuspect {
		t.Fatalf("state committed without Commit: %v", st)
	}
}

func TestSketchGateBoundsMemory(t *testing.T) {
	cfg := testConfig()
	cfg.gateCount = 4
	cfg.maxTemplates = 16
	d := NewDetector(cfg)
	// 10k one-shot templates: all absorbed by the sketch, no entries.
	for i := uint64(0); i < 10000; i++ {
		d.Observe(1000+i*7919, 1.0)
	}
	// Sketch collisions can graduate a few false positives, but exact
	// state stays capped at maxTemplates no matter how many distinct
	// templates flow past.
	st := d.Stats()
	if st.Tracked > cfg.maxTemplates {
		t.Fatalf("tracked=%d exceeds cap %d", st.Tracked, cfg.maxTemplates)
	}
	if st.SketchGated == 0 {
		t.Fatal("sketch gated counter not advancing")
	}
	// A hot template graduates to exact tracking after gateCount
	// sightings (evicting a cold healthy entry if the cap is full).
	for i := 0; i < 10; i++ {
		d.Observe(42, 1.0)
	}
	found := false
	for _, ts := range d.Templates(cfg.maxTemplates) {
		if ts.TemplateHash == 42 {
			found = true
		}
	}
	if !found {
		t.Fatal("hot template did not graduate to exact tracking")
	}
	if got := d.Stats().Tracked; got > cfg.maxTemplates {
		t.Fatalf("tracked=%d exceeds cap %d", got, cfg.maxTemplates)
	}
}

func TestMaxTemplatesEvictsHealthyOnly(t *testing.T) {
	cfg := testConfig()
	cfg.maxTemplates = 4
	d := NewDetector(cfg)
	f := NewFlood(7, 1.0, 0.05)
	for h := uint64(1); h <= 4; h++ {
		feed(d, h, f.Batch(50))
	}
	// Quarantine template 1 manually; it must pin its slot.
	d.Commit(Transition{TemplateHash: 1, From: StateHealthy, To: StateQuarantined, Manual: true})
	// New templates force eviction of healthy entries, never of 1.
	for h := uint64(100); h < 120; h++ {
		d.Observe(h, 1.0)
	}
	if st := d.StateOf(1); st != StateQuarantined {
		t.Fatalf("quarantined template evicted: state=%v", st)
	}
	if got := d.Stats().Tracked; got > cfg.maxTemplates {
		t.Fatalf("tracked=%d exceeds cap %d", got, cfg.maxTemplates)
	}
}

func TestObserveRejectsNonFinite(t *testing.T) {
	d := NewDetector(testConfig())
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := d.Observe(1, v); ok {
			t.Fatalf("non-finite reward %v proposed a transition", v)
		}
	}
	if d.Stats().Observations != 0 {
		t.Fatal("non-finite rewards counted as observations")
	}
}

func TestRestoreSeedsDurableStates(t *testing.T) {
	d := NewDetector(testConfig())
	d.Restore(map[uint64]State{
		1: StateQuarantined,
		2: StateProbation,
		3: StateSuspect, // not durable; must be ignored
	})
	if st := d.StateOf(1); st != StateQuarantined {
		t.Fatalf("state(1)=%v", st)
	}
	if st := d.StateOf(2); st != StateProbation {
		t.Fatalf("state(2)=%v", st)
	}
	if st := d.StateOf(3); st != StateHealthy {
		t.Fatalf("state(3)=%v, suspect must not restore", st)
	}
}

func TestTableBlockedAndReplace(t *testing.T) {
	tb := NewTable()
	if tb.Blocked(1) {
		t.Fatal("empty table blocks")
	}
	tb.Replace(map[uint64]State{1: StateQuarantined, 2: StateProbation})
	if !tb.Blocked(1) {
		t.Fatal("quarantined not blocked")
	}
	if tb.Blocked(2) {
		t.Fatal("probation must serve the hint")
	}
	tb.Replace(map[uint64]State{1: StateHealthy, 2: StateProbation})
	if n := len(tb.Snapshot()); tb.Blocked(1) || n != 1 {
		t.Fatalf("restore failed: blocked=%v len=%d", tb.Blocked(1), n)
	}
	tb.Replace(map[uint64]State{5: StateQuarantined, 6: StateSuspect})
	if n := len(tb.Snapshot()); !tb.Blocked(5) || n != 1 {
		t.Fatalf("replace failed: blocked(5)=%v len=%d", tb.Blocked(5), n)
	}
	tb.Replace(nil)
	if len(tb.Snapshot()) != 0 || tb.Blocked(5) {
		t.Fatal("empty replace did not clear")
	}
	q, p := tb.Counts()
	if q != 0 || p != 0 {
		t.Fatalf("counts = %d,%d", q, p)
	}
}

func BenchmarkTableBlockedMiss(b *testing.B) {
	tb := NewTable()
	tb.Replace(map[uint64]State{99: StateQuarantined})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tb.Blocked(uint64(i) | 1<<40) {
			b.Fatal("unexpected block")
		}
	}
}

func BenchmarkDetectorObserve(b *testing.B) {
	d := NewDetector(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Observe(uint64(i%64), 1.0)
	}
}

// scanVictim is the eviction rule as it stood before the recency list: a
// walk of every entry for the smallest last-observed tick among the
// healthy, non-degrading ones. lastTick is the bookkeeping the entries
// used to carry. It is kept as the reference the list must agree with.
func scanVictim(d *Detector, lastTick map[uint64]uint64) (victim uint64, found bool) {
	victimTick := uint64(math.MaxUint64)
	for hash, e := range d.entries {
		if e.state != StateHealthy || e.degraded > 0 {
			continue
		}
		if lastTick[hash] < victimTick {
			victim, victimTick, found = hash, lastTick[hash], true
		}
	}
	return victim, found
}

// TestEvictionMatchesMapScan replays a seeded churn trace — more live
// templates than slots, some entries pinned by a quarantine or a running
// degraded count, some of those released again — and requires every
// eviction to pick the victim the old full scan would have.
func TestEvictionMatchesMapScan(t *testing.T) {
	cfg := testConfig()
	cfg.maxTemplates = 64
	d := NewDetector(cfg)
	rng := rand.New(rand.NewSource(17))
	lastTick := make(map[uint64]uint64)
	var tick uint64
	var victims, skippedPinned int

	for step := 0; step < 20000; step++ {
		if step%7 == 0 {
			// Pin or release an entry, the way a committed transition or a
			// run of degraded observations would.
			hash := uint64(1 + rng.Intn(cfg.maxTemplates))
			if e, ok := d.entries[hash]; ok {
				switch rng.Intn(3) {
				case 0:
					d.Commit(Transition{TemplateHash: hash, From: e.state, To: StateQuarantined, Manual: true})
				case 1:
					e.degraded = 1 + rng.Intn(3)
				default:
					d.Commit(Transition{TemplateHash: hash, From: e.state, To: StateHealthy, Manual: true})
				}
			}
			continue
		}
		// Skewed churn over up to ten times as many templates as slots.
		hash := uint64(1 + rng.Intn(cfg.maxTemplates*(1+rng.Intn(10))))
		_, tracked := d.entries[hash]
		want, wantFound := uint64(0), false
		if !tracked && len(d.entries) >= cfg.maxTemplates {
			want, wantFound = scanVictim(d, lastTick)
			if front := d.recency.next; wantFound && front.hash != want {
				skippedPinned++
			}
		}
		before := len(d.entries)
		d.Observe(hash, 1.0)
		tick++
		switch {
		case tracked || before < cfg.maxTemplates:
			if len(d.entries) != before && tracked {
				t.Fatalf("step %d: observing a tracked template changed the entry count", step)
			}
		case wantFound:
			if _, still := d.entries[want]; still {
				t.Fatalf("step %d: the scan evicts %x, the list kept it", step, want)
			}
			if len(d.entries) != before {
				t.Fatalf("step %d: eviction left %d entries, want %d", step, len(d.entries), before)
			}
			delete(lastTick, want)
			victims++
		default:
			if _, admitted := d.entries[hash]; admitted {
				t.Fatalf("step %d: admitted %x with every slot pinned", step, hash)
			}
		}
		if _, ok := d.entries[hash]; ok {
			lastTick[hash] = tick
		}
	}
	if victims < 1000 || skippedPinned == 0 {
		t.Fatalf("trace too tame: %d evictions, %d past a pinned front entry", victims, skippedPinned)
	}
	if got := d.Stats().Evictions; got != int64(victims) {
		t.Fatalf("detector counted %d evictions, the trace saw %d", got, victims)
	}
	// The list and the map hold the same entries, each once.
	n := 0
	for e := d.recency.next; e != &d.recency; e = e.next {
		if d.entries[e.hash] != e || e.next.prev != e {
			t.Fatalf("list entry %x is not the map's or is mislinked", e.hash)
		}
		n++
	}
	if n != len(d.entries) {
		t.Fatalf("list holds %d entries, map %d", n, len(d.entries))
	}
}

package load

import (
	"testing"
	"time"
)

func TestParsePhases(t *testing.T) {
	phases, err := ParsePhases("steady:30s@400, ramp:1m@100..2000,day:45s@200~800,crowd:30s@100!1500")
	if err != nil {
		t.Fatal(err)
	}
	want := []Phase{
		{Name: "steady", Shape: ShapeConstant, Duration: 30 * time.Second, Low: 400},
		{Name: "ramp", Shape: ShapeRamp, Duration: time.Minute, Low: 100, High: 2000},
		{Name: "day", Shape: ShapeDiurnal, Duration: 45 * time.Second, Low: 200, High: 800},
		{Name: "crowd", Shape: ShapeFlash, Duration: 30 * time.Second, Low: 100, High: 1500},
	}
	if len(phases) != len(want) {
		t.Fatalf("got %d phases, want %d", len(phases), len(want))
	}
	for i, p := range phases {
		if p != want[i] {
			t.Errorf("phase %d = %+v, want %+v", i, p, want[i])
		}
	}
}

func TestParsePhasesRejects(t *testing.T) {
	for _, spec := range []string{"", "noduration@50", "x:5s", "x:5s@", "x:0s@50", "x:5s@-3", "x:5s@10..-3", "x:5s@abc"} {
		if _, err := ParsePhases(spec); err == nil {
			t.Errorf("spec %q: want error", spec)
		}
	}
}

// TestScheduleDensity pins that the schedule integrates the rate curve:
// a constant phase yields rate*duration ops, and a ramp's second half
// is denser than its first.
func TestScheduleDensity(t *testing.T) {
	c := Phase{Name: "c", Shape: ShapeConstant, Duration: 2 * time.Second, Low: 500}
	sched := c.Schedule()
	if n := len(sched); n < 990 || n > 1010 {
		t.Fatalf("constant 500/s over 2s: %d ops, want ~1000", n)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] <= sched[i-1] {
			t.Fatal("schedule must be strictly increasing")
		}
	}

	ramp := Phase{Name: "r", Shape: ShapeRamp, Duration: 2 * time.Second, Low: 100, High: 900}
	rs := ramp.Schedule()
	var first, second int
	for _, off := range rs {
		if off < time.Second {
			first++
		} else {
			second++
		}
	}
	if second <= first {
		t.Fatalf("ramp second half (%d ops) must outnumber first (%d)", second, first)
	}
}

// TestFlashShape pins the flash crowd's burst window: the middle third
// runs at High, the rest at Low.
func TestFlashShape(t *testing.T) {
	p := Phase{Name: "f", Shape: ShapeFlash, Duration: 3 * time.Second, Low: 100, High: 1000}
	if r := p.RateAt(500 * time.Millisecond); r != 100 {
		t.Fatalf("pre-burst rate %v, want 100", r)
	}
	if r := p.RateAt(1500 * time.Millisecond); r != 1000 {
		t.Fatalf("burst rate %v, want 1000", r)
	}
	if r := p.RateAt(2500 * time.Millisecond); r != 100 {
		t.Fatalf("post-burst rate %v, want 100", r)
	}
}

// TestDiurnalShape pins trough at the edges, peak in the middle.
func TestDiurnalShape(t *testing.T) {
	p := Phase{Name: "d", Shape: ShapeDiurnal, Duration: 10 * time.Second, Low: 200, High: 800}
	if r := p.RateAt(0); r != 200 {
		t.Fatalf("trough rate %v, want 200", r)
	}
	if r := p.RateAt(5 * time.Second); r < 799 || r > 801 {
		t.Fatalf("peak rate %v, want ~800", r)
	}
}

// FuzzParsePhases: ParsePhases never panics, and a plan it accepts has
// positive durations and finite rates in [0, MaxRate] over which Schedule
// is strictly increasing and inside the phase. Schedule runs only on
// phases small enough to enumerate; the seeds under testdata/fuzz hold
// the specs that once reached a NaN rate, a rate whose gap rounded to no
// time at all, and a gap that overflowed a Duration.
func FuzzParsePhases(f *testing.F) {
	for _, s := range []string{
		"steady:30s@400, ramp:1m@100..2000,day:45s@200~800,crowd:30s@100!1500",
		"a:1s@0", "a:1ms@1e9", "x:5s@10..-3", ",,b:2s@3~4,", "c:1h@1!0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		phases, err := ParsePhases(spec)
		if err != nil {
			return
		}
		for _, p := range phases {
			if p.Duration <= 0 {
				t.Fatalf("%q: phase %q accepted with duration %v", spec, p.Name, p.Duration)
			}
			for _, r := range []float64{p.Low, p.High} {
				if !(r >= 0 && r <= MaxRate) {
					t.Fatalf("%q: phase %q accepted with rate %v", spec, p.Name, r)
				}
			}
			// Enumerate only what is cheap: at most ~1e5 ops and 1e5
			// zero-rate steps.
			if p.Duration > 10*time.Minute || max(p.Low, p.High)*p.Duration.Seconds() > 1e5 {
				continue
			}
			sched := p.Schedule()
			for i, off := range sched {
				if off < 0 || off >= p.Duration || i > 0 && off <= sched[i-1] {
					t.Fatalf("%q: phase %q: offset %d is %v after %v (duration %v)", spec, p.Name, i, off, sched[max(i-1, 0)], p.Duration)
				}
			}
		}
	})
}

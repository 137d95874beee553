package experiments

import (
	"reflect"
	"testing"
)

// tinyLab builds a small lab shared by the experiment smoke tests.
func tinyLab(t *testing.T) *Lab {
	t.Helper()
	lab, err := NewLab(Config{Seed: 9, NumTemplates: 12})
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestVarianceShapes(t *testing.T) {
	lab := tinyLab(t)
	lat, err := lab.Variance("latency")
	if err != nil {
		t.Fatal(err)
	}
	pn, err := lab.Variance("pnhours")
	if err != nil {
		t.Fatal(err)
	}
	if len(lat.Points) == 0 || len(pn.Points) == 0 {
		t.Fatal("no variance points")
	}
	// The paper's central §5.1 finding: latency is far noisier than
	// PNhours under A/A runs.
	if lat.FracAbove5 <= pn.FracAbove5 {
		t.Errorf("latency variance (%.2f) should exceed pnhours (%.2f)", lat.FracAbove5, pn.FracAbove5)
	}
	if lat.MedianCV <= pn.MedianCV {
		t.Errorf("median CV: latency %.3f vs pnhours %.3f", lat.MedianCV, pn.MedianCV)
	}
	for _, p := range lat.Points {
		if p.NormalizedTime < 0 || p.NormalizedTime > 1 {
			t.Errorf("normalized time out of range: %v", p.NormalizedTime)
		}
	}
}

func TestStabilityShapes(t *testing.T) {
	lab := tinyLab(t)
	latRes, err := lab.Stability("latency")
	if err != nil {
		t.Fatal(err)
	}
	if len(latRes.Points) == 0 {
		t.Skip("no stability points at this scale")
	}
	if latRes.FracImproved < 0 || latRes.FracImproved > 1 {
		t.Errorf("frac improved = %v", latRes.FracImproved)
	}
	if latRes.FracRegressed < 0 || latRes.FracRegressed > 1 {
		t.Errorf("frac regressed = %v", latRes.FracRegressed)
	}
}

func TestCostVsLatencyShapes(t *testing.T) {
	lab := tinyLab(t)
	res, err := lab.CostVsLatency()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observations) == 0 {
		t.Skip("no observations at this scale")
	}
	// All gathered flips improve the estimated cost by construction.
	for _, o := range res.Observations {
		if o.CostDelta >= 0 {
			t.Errorf("observation with non-improving cost delta: %+v", o)
		}
	}
	// The correlation must be weak (the paper's central negative result).
	if res.Pearson > 0.5 || res.Pearson < -0.5 {
		t.Errorf("cost-latency correlation suspiciously strong: %v", res.Pearson)
	}
}

func TestIOCorrelationShapes(t *testing.T) {
	lab := tinyLab(t)
	read, err := lab.IOCorrelation("read")
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Observations) == 0 {
		t.Skip("no observations at this scale")
	}
	// DataRead delta must positively predict PNhours delta.
	if read.Pearson <= 0 {
		t.Errorf("read-PNhours correlation = %v, want positive", read.Pearson)
	}
	if read.Trend == nil || read.TrendSlope <= 0 {
		t.Errorf("trend slope = %v, want positive", read.TrendSlope)
	}
}

func TestValidationAccuracyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	lab := tinyLab(t)
	res, err := lab.ValidationAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainSamples == 0 || res.TestSamples == 0 {
		t.Fatal("temporal split produced empty sets")
	}
	if res.Model == nil {
		t.Fatal("no model fitted")
	}
	// Precision among accepted predictions must beat the base rate when
	// anything is accepted at all.
	if res.AcceptedCount > 3 && res.FracActualBelow0 < 0.5 {
		t.Errorf("validation precision below 0 = %v with %d accepted", res.FracActualBelow0, res.AcceptedCount)
	}
}

func TestAggregateRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	lab := tinyLab(t)
	res, err := lab.Aggregate(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalJobs == 0 {
		t.Fatal("no jobs on evaluation day")
	}
	if res.FinalDayReport == nil {
		t.Fatal("missing final day report")
	}
	if res.MatchedJobs != len(res.Deltas) {
		t.Errorf("matched %d != deltas %d", res.MatchedJobs, len(res.Deltas))
	}
	sorted := res.SortedDeltas("pnhours")
	for i := 1; i < len(sorted); i++ {
		if sorted[i] < sorted[i-1] {
			t.Fatal("SortedDeltas not sorted")
		}
	}
}

func TestTable3Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	lab := tinyLab(t)
	res, err := lab.Table3(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsConsidered == 0 {
		t.Fatal("no jobs considered")
	}
	if res.NonEmptySpanFrac <= 0 || res.NonEmptySpanFrac > 1 {
		t.Errorf("non-empty span fraction = %v", res.NonEmptySpanFrac)
	}
	total := func(r Table3Row) int { return r.LowerCost + r.EqualCost + r.HigherCost + r.Failures }
	if total(res.Random) != total(res.CB) {
		t.Errorf("row totals differ: random %d, CB %d", total(res.Random), total(res.CB))
	}
	if res.RandomTotalCost <= 0 || res.CBTotalCost <= 0 {
		t.Error("total costs must be positive")
	}
}

func TestFormatPct(t *testing.T) {
	if got := FormatPct(-0.143); got != "-14.3%" {
		t.Errorf("FormatPct = %q", got)
	}
	if got := FormatPct(0.5); got != "+50.0%" {
		t.Errorf("FormatPct = %q", got)
	}
}

func TestLabDeterminism(t *testing.T) {
	a := tinyLab(t)
	b := tinyLab(t)
	va, err := a.Variance("pnhours")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Variance("pnhours")
	if err != nil {
		t.Fatal(err)
	}
	if va.FracAbove5 != vb.FracAbove5 || va.MedianCV != vb.MedianCV {
		t.Error("experiments are not deterministic across identical labs")
	}
}

func TestOffPolicyEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	lab := tinyLab(t)
	res, err := lab.OffPolicyEvaluation(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoggedEvents == 0 {
		t.Fatal("no logged events")
	}
	// The logging policy's value sits near 1 (most flips change little);
	// the IPS estimate must be finite and non-negative.
	if res.LoggingValue <= 0 || res.LoggingValue > 2 {
		t.Errorf("logging value = %v", res.LoggingValue)
	}
	if res.GreedyIPSValue < 0 {
		t.Errorf("greedy IPS value = %v", res.GreedyIPSValue)
	}
	// The values read when the uncapped learner still kept every trained
	// event and the evaluation scanned its whole log after the last
	// Train: collecting each day's rewarded events before its Train sums
	// the same events in the same order.
	if res.LoggedEvents != 61 || res.LoggingValue != 0.9853911633202712 || res.GreedyIPSValue != 4.4751729495550565 {
		t.Errorf("off-policy evaluation = %+v, want {LoggedEvents:61 LoggingValue:0.9853911633202712 GreedyIPSValue:4.4751729495550565}", *res)
	}
}

// TestSharedLabMatchesFreshLabs: the lab's span memo and flight log are
// filled by whichever experiment asks first, so each experiment must
// return on a lab other experiments have used, in any order, exactly
// what it returns on a fresh one.
func TestSharedLabMatchesFreshLabs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	experiments := []struct {
		name string
		run  func(*Lab) (any, error)
	}{
		{"CostVsLatency", func(l *Lab) (any, error) { return l.CostVsLatency() }},
		{"ValidationAccuracy", func(l *Lab) (any, error) { return l.ValidationAccuracy() }},
		{"Table3", func(l *Lab) (any, error) { return l.Table3(3) }},
		{"Stability", func(l *Lab) (any, error) { return l.Stability("latency") }},
		{"OffPolicyEvaluation", func(l *Lab) (any, error) { return l.OffPolicyEvaluation(4) }},
	}
	fresh := make([]any, len(experiments))
	for i, e := range experiments {
		res, err := e.run(tinyLab(t))
		if err != nil {
			t.Fatalf("%s on a fresh lab: %v", e.name, err)
		}
		fresh[i] = res
	}
	shared := tinyLab(t)
	for i := len(experiments) - 1; i >= 0; i-- {
		e := experiments[i]
		res, err := e.run(shared)
		if err != nil {
			t.Fatalf("%s on the shared lab: %v", e.name, err)
		}
		if !reflect.DeepEqual(res, fresh[i]) {
			t.Errorf("%s on the shared lab = %+v, on a fresh lab = %+v", e.name, res, fresh[i])
		}
	}
}

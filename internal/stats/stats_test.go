package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSumMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Sum(xs); got != 11 {
		t.Errorf("Sum = %v, want 11", got)
	}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsInf(Min(nil), 1) {
		t.Error("Min(nil) should be +Inf")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestVariance(t *testing.T) {
	// Known sample variance of {2,4,4,4,5,5,7,9} is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if Variance([]float64{1}) != 0 {
		t.Error("Variance of singleton should be 0")
	}
	if Variance(nil) != 0 {
		t.Error("Variance of nil should be 0")
	}
}

func TestStdDevIsSqrtVariance(t *testing.T) {
	xs := []float64{1, 3, 3, 7, 11}
	if got, want := StdDev(xs), math.Sqrt(Variance(xs)); got != want {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	xs := []float64{10, 10, 10}
	if got := CoefficientOfVariation(xs); got != 0 {
		t.Errorf("CV of constant sample = %v, want 0", got)
	}
	if got := CoefficientOfVariation([]float64{-1, 1}); got != 0 {
		t.Errorf("CV with zero mean = %v, want 0", got)
	}
	xs = []float64{8, 12} // mean 10, sd sqrt(8)
	want := math.Sqrt(8) / 10
	if got := CoefficientOfVariation(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("CV = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	q, err := Quantile(xs, 0.5)
	if err != nil || !almostEqual(q, 2.5, 1e-12) {
		t.Errorf("median = %v err %v, want 2.5", q, err)
	}
	q, err = Quantile(xs, 0)
	if err != nil || q != 1 {
		t.Errorf("q0 = %v err %v, want 1", q, err)
	}
	q, err = Quantile(xs, 1)
	if err != nil || q != 4 {
		t.Errorf("q1 = %v err %v, want 4", q, err)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("expected error on out-of-range q")
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Error("Quantile mutated input")
	}
}

func TestMedianSingleton(t *testing.T) {
	m, err := Median([]float64{42})
	if err != nil || m != 42 {
		t.Errorf("Median singleton = %v err %v", m, err)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v err %v, want 1", r, err)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson = %v err %v, want -1", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("expected short-input error")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("expected zero-variance error")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125} // monotone, nonlinear
	r, err := Spearman(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Errorf("Spearman = %v err %v, want 1", r, err)
	}
}

func TestRanksWithTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{-2, -1, 0, 1, 2}
	if got := FractionBelow(xs, 0); got != 0.4 {
		t.Errorf("FractionBelow = %v, want 0.4", got)
	}
	if got := FractionAbove(xs, 0); got != 0.4 {
		t.Errorf("FractionAbove = %v, want 0.4", got)
	}
	if FractionBelow(nil, 0) != 0 || FractionAbove(nil, 0) != 0 {
		t.Error("fractions of empty input should be 0")
	}
}

func TestRelativeDelta(t *testing.T) {
	if got := RelativeDelta(100, 90); !almostEqual(got, -0.1, 1e-12) {
		t.Errorf("delta = %v, want -0.1", got)
	}
	if got := RelativeDelta(100, 150); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("delta = %v, want 0.5", got)
	}
	if got := RelativeDelta(0, 10); got != 0 {
		t.Errorf("delta with old=0 should be 0, got %v", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := Quantile(xs, q)
			if err != nil {
				return false
			}
			if v < prev-1e-9 {
				return false
			}
			if v < Min(xs)-1e-9 || v > Max(xs)+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Pearson correlation is always within [-1, 1].
func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		c, err := Pearson(xs, ys)
		if err != nil {
			return true // zero-variance draws are legitimately rejected
		}
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ranks are a permutation-weight-preserving map; their sum equals
// n(n+1)/2 regardless of ties.
func TestRanksSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(10)) // force ties
		}
		sum := Sum(Ranks(xs))
		want := float64(n*(n+1)) / 2
		return almostEqual(sum, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceScalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		v := Variance(xs)
		shifted := make([]float64, n)
		scaled := make([]float64, n)
		for i := range xs {
			shifted[i] = xs[i] + 123.0
			scaled[i] = xs[i] * 3.0
		}
		return almostEqual(Variance(shifted), v, 1e-6*(1+v)) &&
			almostEqual(Variance(scaled), 9*v, 1e-6*(1+9*v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

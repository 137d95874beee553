package regression

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitRecoversExactLine(t *testing.T) {
	// y = 3 + 2*x0 - x1, noise free.
	X := [][]float64{{1, 0}, {0, 1}, {2, 3}, {4, 1}, {5, 5}}
	y := make([]float64, len(X))
	for i, row := range X {
		y[i] = 3 + 2*row[0] - row[1]
	}
	m, err := FitRidge(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3) > 1e-8 || math.Abs(m.Coef[0]-2) > 1e-8 || math.Abs(m.Coef[1]+1) > 1e-8 {
		t.Errorf("model = %s", m)
	}
}

func TestFitWithNoiseApproximates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		X = append(X, []float64{x})
		y = append(y, 1.5+0.8*x+rng.NormFloat64()*0.1)
	}
	m, err := FitRidge(X, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-0.8) > 0.05 || math.Abs(m.Intercept-1.5) > 0.1 {
		t.Errorf("model = %s", m)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitRidge(nil, nil, 0); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := FitRidge([][]float64{{1}}, []float64{1, 2}, 0); err == nil {
		t.Error("dimension mismatch should fail")
	}
	if _, err := FitRidge([][]float64{{1, 2}, {1}}, []float64{1, 2}, 0); err == nil {
		t.Error("ragged matrix should fail")
	}
	// Perfectly collinear features are singular without ridge.
	X := [][]float64{{1, 2}, {2, 4}, {3, 6}}
	y := []float64{1, 2, 3}
	if _, err := FitRidge(X, y, 0); err == nil {
		t.Error("collinear OLS should be singular")
	}
	if _, err := FitRidge(X, y, 0.1); err != nil {
		t.Errorf("ridge should handle collinearity: %v", err)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		X = append(X, []float64{x})
		y = append(y, 5*x+rng.NormFloat64()*0.01)
	}
	ols, _ := FitRidge(X, y, 0)
	ridge, _ := FitRidge(X, y, 1000)
	if math.Abs(ridge.Coef[0]) >= math.Abs(ols.Coef[0]) {
		t.Errorf("ridge |coef| %v should be < ols %v", ridge.Coef[0], ols.Coef[0])
	}
}

func TestPolyFitQuadratic(t *testing.T) {
	// y = 1 - 2x + 0.5x^2
	var xs, ys []float64
	for x := -5.0; x <= 5; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, 1-2*x+0.5*x*x)
	}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 0.5}
	for i, w := range want {
		if math.Abs(p.Coef[i]-w) > 1e-6 {
			t.Errorf("coef[%d] = %v, want %v", i, p.Coef[i], w)
		}
	}
	if got := p.Predict(2); math.Abs(got-(1-4+2)) > 1e-6 {
		t.Errorf("Predict(2) = %v", got)
	}
}

func TestPolyFitDegreeZero(t *testing.T) {
	p, err := PolyFit([]float64{1, 2, 3}, []float64{4, 5, 6}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Predict(100)-5) > 1e-9 {
		t.Errorf("degree-0 fit should be the mean, got %v", p.Predict(100))
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit(nil, nil, 1); err == nil {
		t.Error("empty fit should fail")
	}
	if _, err := PolyFit([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative degree should fail")
	}
}

func TestRSquared(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	if r2 := RSquared(y, y); math.Abs(r2-1) > 1e-12 {
		t.Errorf("perfect prediction R2 = %v", r2)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r2 := RSquared(y, mean); math.Abs(r2) > 1e-12 {
		t.Errorf("mean prediction R2 = %v", r2)
	}
	if r2 := RSquared(y, []float64{1}); r2 != 0 {
		t.Error("mismatched lengths should return 0")
	}
}

func TestTemporalSplit(t *testing.T) {
	samples := []Sample{
		{Date: 1, Y: 1}, {Date: 5, Y: 2}, {Date: 8, Y: 3}, {Date: 10, Y: 4},
	}
	train, test := TemporalSplit(samples, 8)
	if len(train) != 2 || len(test) != 2 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	for _, s := range train {
		if s.Date >= 8 {
			t.Error("train contains future sample")
		}
	}
	for _, s := range test {
		if s.Date < 8 {
			t.Error("test contains past sample")
		}
	}
}

func TestFitSamples(t *testing.T) {
	var samples []Sample
	for i := 0; i < 50; i++ {
		x := float64(i)
		samples = append(samples, Sample{Date: i % 14, X: []float64{x}, Y: 2*x + 1})
	}
	m, err := FitSamples(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-2) > 1e-6 {
		t.Errorf("model = %s", m)
	}
	if _, err := FitSamples(nil, 0); err == nil {
		t.Error("no samples should fail")
	}
}

// Property: OLS residuals are orthogonal to the features (normal
// equations hold).
func TestOLSNormalEquationsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(30)
		d := 1 + rng.Intn(3)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64()
			}
			y[i] = rng.NormFloat64()
		}
		m, err := FitRidge(X, y, 0)
		if err != nil {
			return true // singular draws are fine to skip
		}
		for j := 0; j < d; j++ {
			dot := 0.0
			for i := range X {
				res := y[i] - m.Predict(X[i])
				dot += res * X[i][j]
			}
			if math.Abs(dot) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: adding ridge penalty never increases coefficient norms.
func TestRidgeMonotoneShrinkageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.NormFloat64() * 10
		}
		small, err1 := FitRidge(X, y, 0.01)
		large, err2 := FitRidge(X, y, 100)
		if err1 != nil || err2 != nil {
			return true
		}
		normSmall := small.Coef[0]*small.Coef[0] + small.Coef[1]*small.Coef[1]
		normLarge := large.Coef[0]*large.Coef[0] + large.Coef[1]*large.Coef[1]
		return normLarge <= normSmall+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// fitRidgeRef is FitRidge as it was written first: a fresh row of A and
// a fresh row of the normal equations per use. FitRidge builds every row
// of A in one buffer and the normal equations in one slab, with the same
// additions in the same order.
func fitRidgeRef(X [][]float64, y []float64, lambda float64) (*Linear, error) {
	k := len(X[0]) + 1
	ata := make([][]float64, k)
	for i := range ata {
		ata[i] = make([]float64, k+1)
	}
	for r := range X {
		row := make([]float64, k)
		row[0] = 1
		copy(row[1:], X[r])
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][k] += row[i] * y[r]
		}
	}
	for i := 1; i < k; i++ {
		ata[i][i] += lambda
	}
	w, err := solve(ata)
	if err != nil {
		return nil, err
	}
	return &Linear{Intercept: w[0], Coef: w[1:]}, nil
}

// TestFitRidgeMatchesReference: FitRidge's fit is fitRidgeRef's bit for
// bit, singular systems included, over random designs and penalties.
func TestFitRidgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n, d := 1+rng.Intn(40), 1+rng.Intn(6)
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for j := range X[i] {
				X[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			y[i] = rng.NormFloat64() * 100
		}
		lambda := []float64{0, 1e-9, 0.5, 100}[trial%4]
		got, err := FitRidge(X, y, lambda)
		want, errRef := fitRidgeRef(X, y, lambda)
		if (err == nil) != (errRef == nil) {
			t.Fatalf("trial %d: error %v, reference %v", trial, err, errRef)
		}
		if err != nil {
			continue
		}
		if math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) {
			t.Fatalf("trial %d: intercept %v, reference %v", trial, got.Intercept, want.Intercept)
		}
		for i := range want.Coef {
			if math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
				t.Fatalf("trial %d: coefficient %d is %v, reference %v", trial, i, got.Coef[i], want.Coef[i])
			}
		}
	}
}

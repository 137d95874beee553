// Package regression provides the small linear-modelling toolkit
// QO-Advisor's Validation stage relies on: ordinary least squares, ridge
// regularization, one-dimensional polynomial fits (the trend lines in
// Figures 7 and 8), and temporal train/test splitting of timestamped
// datasets (§4.3: "split the dataset by date ... to test whether the
// trained model can generalize to other dates temporally").
package regression

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal equations are not solvable.
var ErrSingular = errors.New("regression: singular system")

// Linear is a fitted linear model y = Intercept + Σ Coef[i] * x[i].
type Linear struct {
	Coef      []float64
	Intercept float64
}

// Predict evaluates the model on one feature vector.
func (m *Linear) Predict(x []float64) float64 {
	y := m.Intercept
	for i, c := range m.Coef {
		if i < len(x) {
			y += c * x[i]
		}
	}
	return y
}

// String renders the model equation.
func (m *Linear) String() string {
	s := fmt.Sprintf("y = %.4g", m.Intercept)
	for i, c := range m.Coef {
		s += fmt.Sprintf(" + %.4g*x%d", c, i)
	}
	return s
}

// FitRidge performs ridge regression of y on X (rows are observations)
// with penalty lambda >= 0; the intercept is not penalized, and lambda 0
// is ordinary least squares.
func FitRidge(X [][]float64, y []float64, lambda float64) (*Linear, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, errors.New("regression: bad dimensions")
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, errors.New("regression: ragged feature matrix")
		}
	}
	// Augment with the intercept column.
	k := d + 1
	// Normal equations: (A'A + λI) w = A'y with A = [1 | X], its rows
	// cut from one slab; the last column holds A'y. Each sample's row of A
	// is built in one buffer, which the next sample overwrites.
	ata := make([][]float64, k)
	cells := make([]float64, k*(k+1))
	for i := range ata {
		ata[i] = cells[i*(k+1) : (i+1)*(k+1) : (i+1)*(k+1)]
	}
	row := make([]float64, k)
	row[0] = 1
	for r := 0; r < n; r++ {
		copy(row[1:], X[r])
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				ata[i][j] += row[i] * row[j]
			}
			ata[i][k] += row[i] * y[r]
		}
	}
	for i := 1; i < k; i++ { // skip the intercept
		ata[i][i] += lambda
	}
	w, err := solve(ata)
	if err != nil {
		return nil, err
	}
	return &Linear{Intercept: w[0], Coef: w[1:]}, nil
}

// solve performs Gaussian elimination with partial pivoting on an
// augmented matrix [M | b], returning the solution vector.
func solve(m [][]float64) ([]float64, error) {
	k := len(m)
	for col := 0; col < k; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < k; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		// Eliminate below.
		for r := col + 1; r < k; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= k; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	w := make([]float64, k)
	for i := k - 1; i >= 0; i-- {
		sum := m[i][k]
		for j := i + 1; j < k; j++ {
			sum -= m[i][j] * w[j]
		}
		w[i] = sum / m[i][i]
	}
	return w, nil
}

// Polynomial is a fitted 1-D polynomial y = Σ Coef[i] * x^i.
type Polynomial struct {
	Coef []float64 // Coef[0] is the constant term
}

// PolyFit fits a polynomial of the given degree to (xs, ys) by least
// squares — the "one-dimensional polynomial fit" trend lines of the
// paper's Figures 7 and 8.
func PolyFit(xs, ys []float64, degree int) (*Polynomial, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, errors.New("regression: bad dimensions")
	}
	if degree < 0 {
		return nil, errors.New("regression: negative degree")
	}
	X := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, degree)
		pow := x
		for d := 0; d < degree; d++ {
			row[d] = pow
			pow *= x
		}
		X[i] = row
	}
	lin, err := FitRidge(X, ys, 1e-9)
	if err != nil {
		return nil, err
	}
	return &Polynomial{Coef: append([]float64{lin.Intercept}, lin.Coef...)}, nil
}

// RSquared computes the coefficient of determination of predictions.
func RSquared(yTrue, yPred []float64) float64 {
	if len(yTrue) != len(yPred) || len(yTrue) == 0 {
		return 0
	}
	mean := 0.0
	for _, y := range yTrue {
		mean += y
	}
	mean /= float64(len(yTrue))
	var ssRes, ssTot float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		ssRes += d * d
		t := yTrue[i] - mean
		ssTot += t * t
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

// Sample is one timestamped observation for temporal splitting.
type Sample struct {
	Date int
	X    []float64
	Y    float64
}

// TemporalSplit partitions samples into a training set (Date < cutoff) and
// a test set (Date >= cutoff), the paper's week0/week1 protocol.
func TemporalSplit(samples []Sample, cutoff int) (train, test []Sample) {
	for _, s := range samples {
		if s.Date < cutoff {
			train = append(train, s)
		} else {
			test = append(test, s)
		}
	}
	return train, test
}

// FitSamples fits a ridge model on a sample set.
func FitSamples(samples []Sample, lambda float64) (*Linear, error) {
	if len(samples) == 0 {
		return nil, errors.New("regression: no samples")
	}
	X := make([][]float64, len(samples))
	y := make([]float64, len(samples))
	for i, s := range samples {
		X[i] = s.X
		y[i] = s.Y
	}
	return FitRidge(X, y, lambda)
}

// Package stats provides the descriptive statistics used throughout the
// QO-Advisor experiments: moments, quantiles, correlation measures and
// simple histogram summaries. All functions operate on float64 slices and
// never mutate their inputs unless documented otherwise.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Min returns the minimum of xs, or +Inf for empty input.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for empty input.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Variance returns the unbiased sample variance of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mean := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CoefficientOfVariation returns StdDev/|Mean|, the scale-free dispersion
// measure the paper uses for its A/A variance plots (Figures 3 and 5).
// It returns 0 when the mean is 0.
func CoefficientOfVariation(xs []float64) float64 {
	mean := Mean(xs)
	if mean == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(mean)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. The input need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns an error if the slices differ in length, are shorter than 2,
// or either has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the Spearman rank correlation between xs and ys.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the fractional ranks of xs (average rank for ties),
// 1-based, in the original order.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average rank for the tie group [i, j].
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// FractionBelow returns the fraction of xs strictly below threshold.
func FractionBelow(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAbove returns the fraction of xs strictly above threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > threshold {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// RelativeDelta returns new/old - 1, the "delta" convention used by every
// figure in the paper (a value > 0 is a regression). It returns 0 when old
// is 0 to keep aggregate statistics finite.
func RelativeDelta(oldVal, newVal float64) float64 {
	if oldVal == 0 {
		return 0
	}
	return newVal/oldVal - 1
}

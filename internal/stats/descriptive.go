// Package stats is a from-scratch, stdlib-only statistics library covering
// everything the paper's Stage-IV analysis needs: descriptive statistics and
// quantiles, ordinary least squares regression, correlation with p-values,
// parametric distributions with maximum-likelihood fitting (exponential,
// Weibull, exponentiated Weibull), density histograms, and
// Kolmogorov–Smirnov goodness of fit.
//
// Go's ecosystem lacks a pandas/scipy equivalent; this package implements
// the required subset with numerically careful algorithms (compensated
// summation, continued-fraction special functions) and deterministic,
// injectable randomness.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ErrInsufficient is returned by estimators that require more observations
// than were provided.
var ErrInsufficient = errors.New("stats: insufficient sample size")

// Sum returns the sum of xs using Kahan compensated summation, which keeps
// error growth O(1) instead of O(n) for long, mixed-magnitude series such as
// cumulative mileage records.
func Sum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the unbiased (n-1) sample variance of xs.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrInsufficient
	}
	m, _ := Mean(xs)
	var ss, comp float64
	for _, x := range xs {
		d := x - m
		y := d*d - comp
		t := ss + y
		comp = (t - ss) - y
		ss = t
	}
	return ss / float64(len(xs)-1), nil
}

// Min returns the smallest value in xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value in xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the p-th quantile (0 <= p <= 1) of xs using the type-7
// (linear interpolation) estimator, the default in R and NumPy. xs need not
// be sorted.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, errors.New("stats: quantile probability outside [0,1]")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// quantileSorted is Quantile on an already-sorted slice, without copying.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// FiveNum is a box-plot summary: minimum, first quartile, median, third
// quartile, and maximum, plus the whisker positions under the 1.5*IQR rule
// and any points beyond them.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	// LowWhisker and HighWhisker are the most extreme data points within
	// 1.5*IQR of the nearest quartile.
	LowWhisker, HighWhisker float64
	// Outliers holds points beyond the whiskers, ascending.
	Outliers []float64
	// N is the sample size.
	N int
}

// IQR returns the interquartile range Q3-Q1.
func (f FiveNum) IQR() float64 { return f.Q3 - f.Q1 }

// BoxPlot computes the five-number summary of xs with Tukey whiskers.
func BoxPlot(xs []float64) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	f := FiveNum{
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
	lowFence := f.Q1 - 1.5*f.IQR()
	highFence := f.Q3 + 1.5*f.IQR()
	f.LowWhisker, f.HighWhisker = f.Max, f.Min
	for _, x := range sorted {
		if x >= lowFence && x < f.LowWhisker {
			f.LowWhisker = x
		}
		if x <= highFence && x > f.HighWhisker {
			f.HighWhisker = x
		}
		if x < lowFence || x > highFence {
			f.Outliers = append(f.Outliers, x)
		}
	}
	return f, nil
}

// Log10All returns log10 of every element. Elements <= 0 map to NaN.
func Log10All(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			out[i] = math.NaN()
		} else {
			out[i] = math.Log10(x)
		}
	}
	return out
}

// PairedDropNaN filters parallel slices xs, ys to indices where both values
// are finite. It returns copies; inputs are not modified.
func PairedDropNaN(xs, ys []float64) ([]float64, []float64) {
	n := len(xs)
	if len(ys) < n {
		n = len(ys)
	}
	ox := make([]float64, 0, n)
	oy := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) || math.IsNaN(ys[i]) || math.IsInf(ys[i], 0) {
			continue
		}
		ox = append(ox, xs[i])
		oy = append(oy, ys[i])
	}
	return ox, oy
}

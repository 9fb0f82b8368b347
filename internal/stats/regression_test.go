package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearRegressionExactLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	r, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, r.Slope, 2, 1e-10, "slope")
	almostEqual(t, r.Intercept, 3, 1e-10, "intercept")
	almostEqual(t, r.R2, 1, 1e-10, "R2")
	almostEqual(t, r.ResidualStdDev, 0, 1e-9, "residual sd")
	almostEqual(t, r.Predict(10), 23, 1e-9, "predict")
}

func TestLinearRegressionNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = float64(i) / 10
		ys[i] = -1.5 + 0.8*xs[i] + rng.NormFloat64()*0.5
	}
	r, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, r.Slope, 0.8, 0.02, "noisy slope")
	almostEqual(t, r.Intercept, -1.5, 0.3, "noisy intercept")
	if r.R2 < 0.9 {
		t.Errorf("R2 = %g, want > 0.9", r.R2)
	}
	if r.SlopeP > 1e-10 {
		t.Errorf("slope p = %g, want tiny", r.SlopeP)
	}
	if r.SlopeStdErr <= 0 {
		t.Errorf("slope stderr = %g, want > 0", r.SlopeStdErr)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("n=1: want error")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x: want error")
	}
	// NaNs are dropped, leaving too few points.
	if _, err := LinearRegression([]float64{1, math.NaN()}, []float64{1, 2}); err == nil {
		t.Error("NaN-thinned sample: want error")
	}
}

func TestLogLogRegression(t *testing.T) {
	// y = 10 * x^0.5 in log10 space: log y = 1 + 0.5 log x.
	xs := []float64{1, 10, 100, 1000}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 10 * math.Sqrt(x)
	}
	r, err := LogLogRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, r.Slope, 0.5, 1e-9, "power-law exponent")
	almostEqual(t, r.Intercept, 1, 1e-9, "power-law constant")
	// Non-positive points are dropped, not fatal.
	xs = append(xs, -5, 0)
	ys = append(ys, 3, 4)
	r2, err := LogLogRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, r2.Slope, 0.5, 1e-9, "power-law exponent after drop")
	if r2.N != 4 {
		t.Errorf("N = %d, want 4", r2.N)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, r.R, 1, 1e-12, "perfect positive r")
	almostEqual(t, r.P, 0, 1e-12, "perfect p")
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	almostEqual(t, r.R, -1, 1e-12, "perfect negative r")
}

func TestPearsonKnown(t *testing.T) {
	// Anscombe's quartet I: r ~ 0.8164.
	xs := []float64{10, 8, 13, 9, 11, 14, 6, 4, 12, 7, 5}
	ys := []float64{8.04, 6.95, 7.58, 8.81, 8.33, 9.96, 7.24, 4.26, 10.84, 4.82, 5.68}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, r.R, 0.81642, 1e-4, "Anscombe r")
	almostEqual(t, r.P, 0.00217, 1e-4, "Anscombe p")
	if r.N != 11 {
		t.Errorf("N = %d", r.N)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{3, 4}); err != ErrInsufficient {
		t.Errorf("n=2: err = %v, want ErrInsufficient", err)
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("constant x: want error")
	}
}

// Property: Pearson r is bounded, symmetric in argument order, and invariant
// to positive affine transforms.
func TestPearsonInvarianceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = r.NormFloat64()
			ys[i] = 0.5*xs[i] + r.NormFloat64()
		}
		p1, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draw; skip
		}
		if p1.R < -1-1e-12 || p1.R > 1+1e-12 || p1.P < 0 || p1.P > 1 {
			return false
		}
		p2, err := Pearson(ys, xs)
		if err != nil || math.Abs(p1.R-p2.R) > 1e-9 {
			return false
		}
		// Affine transform invariance: r(a*x+b, y) == r(x, y) for a > 0.
		ax := make([]float64, n)
		for i, x := range xs {
			ax[i] = 3.7*x - 11
		}
		p3, err := Pearson(ax, ys)
		return err == nil && math.Abs(p1.R-p3.R) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(45))}); err != nil {
		t.Error(err)
	}
}

// Property: regression recovers a planted line from clean data for random
// slopes/intercepts.
func TestRegressionRecoveryProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		slope := r.NormFloat64() * 5
		intercept := r.NormFloat64() * 10
		n := 3 + r.Intn(30)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = float64(i) + r.Float64()
			ys[i] = intercept + slope*xs[i]
		}
		fit, err := LinearRegression(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(fit.Slope-slope) < 1e-6*(1+math.Abs(slope)) &&
			math.Abs(fit.Intercept-intercept) < 1e-5*(1+math.Abs(intercept))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(45))}); err != nil {
		t.Error(err)
	}
}

package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 10}
	h, err := NewHistogram(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) != 5 || len(h.Edges) != 6 {
		t.Fatalf("bins = %d, edges = %d", len(h.Counts), len(h.Edges))
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != len(xs) {
		t.Errorf("binned %d of %d observations", total, len(xs))
	}
	// Density integrates to 1.
	var area float64
	for i, d := range h.Density {
		area += d * (h.Edges[i+1] - h.Edges[i])
	}
	almostEqual(t, area, 1, 1e-12, "histogram density area")
	// Max value lands in the last bin, not out of range.
	if h.Counts[4] == 0 {
		t.Error("last bin should contain the max value")
	}
}

func TestHistogramEmptyAndConstant(t *testing.T) {
	if _, err := NewHistogram(nil, 5); err != ErrEmpty {
		t.Errorf("empty: err = %v", err)
	}
	h, err := NewHistogram([]float64{7, 7, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant sample binned %d of 3", total)
	}
}

func TestHistogramAutoBins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h, err := NewHistogram(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Counts) < 5 || len(h.Counts) > 200 {
		t.Errorf("auto bin count = %d, want reasonable", len(h.Counts))
	}
}

func TestFreedmanDiaconisFallback(t *testing.T) {
	// Zero IQR forces the Sturges fallback.
	xs := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 100}
	bins := FreedmanDiaconisBins(xs)
	if bins < 1 || bins > 200 {
		t.Errorf("bins = %d", bins)
	}
	if FreedmanDiaconisBins([]float64{1}) != 1 {
		t.Error("n=1 should give 1 bin")
	}
}

func TestKDERecoversGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	truth := Normal{Mu: 2, Sigma: 1}
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = truth.Rand(rng)
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if k.Bandwidth() <= 0 {
		t.Fatalf("bandwidth = %g", k.Bandwidth())
	}
	for _, x := range []float64{0, 1, 2, 3, 4} {
		almostEqual(t, k.PDF(x), truth.PDF(x), 0.03, "KDE vs true density")
	}
	grid, dens := k.Evaluate(-2, 6, 101)
	if len(grid) != 101 || len(dens) != 101 {
		t.Fatalf("grid sizes %d/%d", len(grid), len(dens))
	}
	// Grid density integrates to ~1 (trapezoid).
	var area float64
	for i := 1; i < len(grid); i++ {
		area += (dens[i] + dens[i-1]) / 2 * (grid[i] - grid[i-1])
	}
	almostEqual(t, area, 1, 0.02, "KDE area")
}

func TestKDEErrors(t *testing.T) {
	if _, err := NewKDE([]float64{1}, 0); err != ErrInsufficient {
		t.Errorf("n=1: err = %v", err)
	}
	if _, err := NewKDE([]float64{3, 3, 3}, 0); err == nil {
		t.Error("constant data with auto bandwidth: want error")
	}
	// Constant data with explicit bandwidth is fine.
	k, err := NewKDE([]float64{3, 3, 3}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if k.PDF(3) <= 0 {
		t.Error("PDF at data point should be positive")
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	truth := Normal{Mu: 5, Sigma: 2}
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = truth.Rand(rng)
	}
	meanStat := func(s []float64) float64 {
		m, _ := Mean(s)
		return m
	}
	ci, err := Bootstrap(xs, meanStat, 2000, 0.95, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Low > ci.Point || ci.Point > ci.High {
		t.Errorf("CI [%g, %g] does not bracket point %g", ci.Low, ci.High, ci.Point)
	}
	if ci.Low > 5 || ci.High < 5 {
		t.Errorf("95%% CI [%g, %g] misses true mean 5 (possible but unlikely)", ci.Low, ci.High)
	}
	width := ci.High - ci.Low
	if width <= 0 || width > 1.5 {
		t.Errorf("CI width = %g, want (0, 1.5]", width)
	}
}

func TestBootstrapErrors(t *testing.T) {
	stat := func(s []float64) float64 { return 0 }
	rng := rand.New(rand.NewSource(1))
	if _, err := Bootstrap(nil, stat, 100, 0.95, rng); err != ErrEmpty {
		t.Errorf("empty: %v", err)
	}
	if _, err := Bootstrap([]float64{1}, stat, 5, 0.95, rng); err == nil {
		t.Error("too few resamples: want error")
	}
	if _, err := Bootstrap([]float64{1}, stat, 100, 1.5, rng); err == nil {
		t.Error("bad level: want error")
	}
	if _, err := Bootstrap([]float64{1}, stat, 100, 0.95, nil); err == nil {
		t.Error("nil rng: want error")
	}
}

func TestBootstrapDeterminism(t *testing.T) {
	xs := []float64{1, 4, 2, 8, 5, 7}
	medStat := func(s []float64) float64 {
		m, _ := Median(s)
		return m
	}
	a, err := Bootstrap(xs, medStat, 200, 0.9, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bootstrap(xs, medStat, 200, 0.9, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Low != b.Low || a.High != b.High || math.Abs(a.Point-b.Point) > 0 {
		t.Errorf("same seed gave different CIs: %+v vs %+v", a, b)
	}
}

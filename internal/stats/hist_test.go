package stats

import (
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

package stats

import "math"

// Histogram is a density-normalized histogram: the area under the bars
// integrates to 1, matching the PDF overlays in the paper's Figs. 11–12.
type Histogram struct {
	// Edges holds len(Counts)+1 bin boundaries, ascending.
	Edges []float64
	// Counts holds raw per-bin observation counts.
	Counts []int
	// Density holds counts normalized by (n * width): a PDF estimate.
	Density []float64
	// N is the total number of observations binned.
	N int
}

// NewHistogram bins xs into nbins equal-width bins spanning [min, max].
// With nbins <= 0 the bin count is chosen by the Freedman–Diaconis rule
// (falling back to Sturges for degenerate IQR).
func NewHistogram(xs []float64, nbins int) (Histogram, error) {
	if len(xs) == 0 {
		return Histogram{}, ErrEmpty
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if lo == hi {
		hi = lo + 1 // single-valued sample: one unit-width bin
	}
	if nbins <= 0 {
		nbins = FreedmanDiaconisBins(xs)
	}
	h := Histogram{
		Edges:   make([]float64, nbins+1),
		Counts:  make([]int, nbins),
		Density: make([]float64, nbins),
		N:       len(xs),
	}
	width := (hi - lo) / float64(nbins)
	for i := range h.Edges {
		h.Edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= nbins { // x == hi lands in the last bin
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		h.Counts[idx]++
	}
	norm := float64(h.N) * width
	for i, c := range h.Counts {
		h.Density[i] = float64(c) / norm
	}
	return h, nil
}

// FreedmanDiaconisBins returns the Freedman–Diaconis bin count for xs,
// clamped to [1, 200]; it falls back to Sturges' rule when the IQR is zero.
func FreedmanDiaconisBins(xs []float64) int {
	n := len(xs)
	if n < 2 {
		return 1
	}
	q1, _ := Quantile(xs, 0.25)
	q3, _ := Quantile(xs, 0.75)
	iqr := q3 - q1
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	span := hi - lo
	var bins int
	if iqr > 0 && span > 0 {
		width := 2 * iqr / math.Cbrt(float64(n))
		bins = int(math.Ceil(span / width))
	} else {
		bins = int(math.Ceil(math.Log2(float64(n)))) + 1 // Sturges
	}
	if bins < 1 {
		bins = 1
	}
	if bins > 200 {
		bins = 200
	}
	return bins
}

package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to mean anything.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted samples (the
// smallest sample with at least q of the data at or below it).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the zero-based nearest-rank index of quantile q over n
// samples.
func rankIndex(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// beyond returns how many of n samples lie above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, q)
}

// tail returns what latency_p99_ms reports from sorted samples, the
// percentile that is, and how many samples lie beyond it: p99 when at
// least minBeyond do, else the highest percentile that keeps minBeyond
// beyond it, else (with too few samples for any) the median.
func tail(sorted []float64) (value, q float64, over int) {
	n := len(sorted)
	switch {
	case beyond(n, 0.99) >= minBeyond:
		return quantile(sorted, 0.99), 0.99, beyond(n, 0.99)
	case n <= 2*minBeyond:
		return quantile(sorted, 0.5), 0.5, beyond(n, 0.5)
	}
	i := n - 1 - minBeyond
	return sorted[i], float64(i+1) / float64(n), minBeyond
}

// quietest selects the units (seconds of a phase, or build studies) the
// timing metrics are taken over, given the share of CPU time the
// hypervisor took in each: every unit under quietSteal, or, when fewer
// than want are, the want units with the least steal.
func quietest(steal []float64, want int) []bool {
	use := make([]bool, len(steal))
	quiet := 0
	for i, s := range steal {
		if s < quietSteal {
			use[i] = true
			quiet++
		}
	}
	if quiet >= want {
		return use
	}
	order := make([]int, len(steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return steal[order[a]] < steal[order[b]] })
	for _, i := range order[:min(want, len(order))] {
		use[i] = true
	}
	return use
}

// median returns the median of values (mean of the middle pair for even
// counts), without modifying the input.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the same
// "exclusive" interpolation Python's statistics.quantiles(values, n=4)
// uses, so spreads printed here match the ones an outside checker
// computes from the same values. Fewer than two values give q1 = q3 =
// the value.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	m := median(values)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// mean returns the arithmetic mean, or 0 for no values.
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

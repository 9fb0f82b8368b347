package stats

import (
	"errors"
	"math/rand"
	"sort"
)

// BootstrapCI is a percentile bootstrap confidence interval for a statistic.
type BootstrapCI struct {
	// Point is the statistic evaluated on the original sample.
	Point float64
	// Low and High bound the (1-alpha) percentile interval.
	Low, High float64
	// Level is the confidence level (e.g. 0.95).
	Level float64
	// Resamples is the number of bootstrap replicates drawn.
	Resamples int
}

// Bootstrap computes a percentile bootstrap confidence interval for the
// statistic stat over xs at confidence level (e.g. 0.95), drawing resamples
// replicates with the supplied random source. The paper's small-n accident
// metrics (DPA, APM) are reported with this machinery in the reproduction.
func Bootstrap(xs []float64, stat func([]float64) float64, resamples int, level float64, rng *rand.Rand) (BootstrapCI, error) {
	if len(xs) == 0 {
		return BootstrapCI{}, ErrEmpty
	}
	if resamples < 10 {
		return BootstrapCI{}, errors.New("stats: bootstrap requires >= 10 resamples")
	}
	if level <= 0 || level >= 1 {
		return BootstrapCI{}, errors.New("stats: bootstrap level must be in (0,1)")
	}
	if rng == nil {
		return BootstrapCI{}, errors.New("stats: bootstrap requires a random source")
	}
	reps := make([]float64, resamples)
	buf := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range buf {
			buf[i] = xs[rng.Intn(len(xs))]
		}
		reps[r] = stat(buf)
	}
	sort.Float64s(reps)
	alpha := 1 - level
	return BootstrapCI{
		Point:     stat(xs),
		Low:       quantileSorted(reps, alpha/2),
		High:      quantileSorted(reps, 1-alpha/2),
		Level:     level,
		Resamples: resamples,
	}, nil
}

package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestSumKahan(t *testing.T) {
	// A sum that loses precision with naive accumulation.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1.0)
	}
	xs = append(xs, -1e16)
	if got := Sum(xs); got != 10000 {
		t.Errorf("Kahan sum = %g, want 10000", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, m, 5, 1e-12, "mean")
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	almostEqual(t, v, 32.0/7.0, 1e-12, "variance")
}

func TestEmptyErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Variance([]float64{1}); err != ErrInsufficient {
		t.Errorf("Variance([1]) err = %v, want ErrInsufficient", err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := BoxPlot(nil); err != ErrEmpty {
		t.Errorf("BoxPlot(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	if lo != -9 || hi != 6 {
		t.Errorf("min/max = %g/%g, want -9/6", lo, hi)
	}
}

func TestQuantileType7(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		almostEqual(t, got, c.want, 1e-12, "quantile")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5): want error")
	}
}

func TestQuantileSingleValue(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("single-value quantile = %g, want 42", got)
	}
}

func TestMedianOddEven(t *testing.T) {
	m, _ := Median([]float64{5, 1, 3})
	almostEqual(t, m, 3, 1e-12, "odd median")
	m, _ = Median([]float64{4, 1, 3, 2})
	almostEqual(t, m, 2.5, 1e-12, "even median")
}

func TestBoxPlot(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	f, err := BoxPlot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Min != 1 || f.Max != 100 || f.N != 10 {
		t.Errorf("min/max/n = %g/%g/%d", f.Min, f.Max, f.N)
	}
	almostEqual(t, f.Median, 5.5, 1e-12, "median")
	if len(f.Outliers) != 1 || f.Outliers[0] != 100 {
		t.Errorf("outliers = %v, want [100]", f.Outliers)
	}
	if f.HighWhisker != 9 {
		t.Errorf("high whisker = %g, want 9", f.HighWhisker)
	}
	if f.LowWhisker != 1 {
		t.Errorf("low whisker = %g, want 1", f.LowWhisker)
	}
}

// TestLog10AllAndDropNaN pins the log-log composition the figures use:
// Log10All maps non-positive values to NaN and PairedDropNaN drops them.
func TestLog10AllAndDropNaN(t *testing.T) {
	xs := Log10All([]float64{100, 0, -5, 10})
	if xs[0] != 2 || !math.IsNaN(xs[1]) || !math.IsNaN(xs[2]) || xs[3] != 1 {
		t.Errorf("Log10All = %v", xs)
	}
	clean, _ := PairedDropNaN(xs, xs)
	if len(clean) != 2 || clean[0] != 2 || clean[1] != 1 {
		t.Errorf("PairedDropNaN(Log10All) = %v", clean)
	}
}

func TestPairedDropNaN(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 4}
	ys := []float64{10, 20, math.Inf(1), 40}
	ox, oy := PairedDropNaN(xs, ys)
	if len(ox) != 2 || ox[0] != 1 || ox[1] != 4 || oy[0] != 10 || oy[1] != 40 {
		t.Errorf("PairedDropNaN = %v, %v", ox, oy)
	}
}

// Property: quantile is monotone in p and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		prev := lo
		for p := 0.0; p <= 1.0001; p += 0.05 {
			pp := math.Min(p, 1)
			q, err := Quantile(xs, pp)
			if err != nil {
				return false
			}
			if q < prev-1e-9 || q < lo-1e-9 || q > hi+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: mean lies within [min, max]; variance is non-negative.
func TestMeanVarianceBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*2000 - 1000
		}
		m, err := Mean(xs)
		if err != nil {
			return false
		}
		lo, _ := Min(xs)
		hi, _ := Max(xs)
		if m < lo-1e-9 || m > hi+1e-9 {
			return false
		}
		v, err := Variance(xs)
		return err == nil && v >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Error(err)
	}
}

// Property: BoxPlot invariants Min <= LowWhisker <= Q1 <= Median <= Q3 <=
// HighWhisker <= Max, and outlier count + in-fence count == N.
func TestBoxPlotInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(80)
		xs := make([]float64, n)
		for i := range xs {
			// Mix of normal bulk and occasional large outliers.
			xs[i] = r.NormFloat64()
			if r.Intn(10) == 0 {
				xs[i] *= 50
			}
		}
		f, err := BoxPlot(xs)
		if err != nil {
			return false
		}
		// Quartiles are monotone; whiskers stay inside [Min, Max] and
		// ordered. Note a whisker may legitimately cross an interpolated
		// quartile when an extreme outlier drags Q1/Q3 toward it.
		ordered := f.Min <= f.Q1+1e-12 &&
			f.Q1 <= f.Median+1e-12 && f.Median <= f.Q3+1e-12 &&
			f.Q3 <= f.Max+1e-12 &&
			f.Min <= f.LowWhisker && f.LowWhisker <= f.HighWhisker+1e-12 &&
			f.HighWhisker <= f.Max
		if !ordered {
			return false
		}
		sort.Float64s(f.Outliers)
		for _, o := range f.Outliers {
			if o >= f.Q1-1.5*f.IQR() && o <= f.Q3+1.5*f.IQR() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

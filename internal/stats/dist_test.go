package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExponentialBasics(t *testing.T) {
	e := Exponential{Lambda: 0.5}
	almostEqual(t, e.Lambda, 0.5, 1e-12, "lambda")
	almostEqual(t, e.Mean(), 2, 1e-12, "mean")
	almostEqual(t, e.CDF(0), 0, 1e-12, "CDF(0)")
	almostEqual(t, e.CDF(2*math.Ln2), 0.5, 1e-12, "CDF at median")
	almostEqual(t, e.Quantile(0.5), 2*math.Ln2, 1e-12, "median")
	almostEqual(t, e.PDF(0), 0.5, 1e-12, "PDF(0)")
	if e.PDF(-1) != 0 || e.CDF(-1) != 0 {
		t.Error("negative support should be zero")
	}
}

func TestWeibullBasics(t *testing.T) {
	// K=1 reduces to exponential with mean Lambda.
	w := Weibull{K: 1, Lambda: 3}
	e := Exponential{Lambda: 1.0 / 3}
	for _, x := range []float64{0.1, 1, 5, 10} {
		almostEqual(t, w.CDF(x), e.CDF(x), 1e-12, "Weibull(1) == Exponential CDF")
		almostEqual(t, w.PDF(x), e.PDF(x), 1e-12, "Weibull(1) == Exponential PDF")
	}
	almostEqual(t, w.Mean(), 3, 1e-12, "Weibull(1) mean")
	// K=2 is Rayleigh: mean = lambda*sqrt(pi)/2.
	ray := Weibull{K: 2, Lambda: 2}
	almostEqual(t, ray.Mean(), 2*math.Sqrt(math.Pi)/2, 1e-12, "Rayleigh mean")
	// PDF edge behaviour at x=0.
	if v := (Weibull{K: 0.5, Lambda: 1}).PDF(0); !math.IsInf(v, 1) {
		t.Errorf("K<1 PDF(0) = %g, want +Inf", v)
	}
	if v := (Weibull{K: 1, Lambda: 2}).PDF(0); v != 0.5 {
		t.Errorf("K=1 PDF(0) = %g, want 0.5", v)
	}
	if v := (Weibull{K: 2, Lambda: 1}).PDF(0); v != 0 {
		t.Errorf("K>1 PDF(0) = %g, want 0", v)
	}
}

func TestExpWeibullReducesToWeibull(t *testing.T) {
	ew := ExpWeibull{K: 1.5, Lambda: 2, Alpha: 1}
	w := Weibull{K: 1.5, Lambda: 2}
	for _, x := range []float64{0.2, 1, 3, 7} {
		almostEqual(t, ew.CDF(x), w.CDF(x), 1e-12, "ExpWeibull(alpha=1) CDF")
		almostEqual(t, ew.PDF(x), w.PDF(x), 1e-10, "ExpWeibull(alpha=1) PDF")
	}
	almostEqual(t, ew.Mean(), w.Mean(), 1e-3, "ExpWeibull mean vs closed form")
}

func TestNormalBasics(t *testing.T) {
	n := Normal{Mu: 10, Sigma: 2}
	almostEqual(t, n.CDF(10), 0.5, 1e-12, "CDF at mean")
	almostEqual(t, n.CDF(10+1.96*2), 0.975, 1e-4, "CDF at +1.96 sigma")
	almostEqual(t, n.Quantile(0.5), 10, 1e-9, "median")
	almostEqual(t, n.Mean(), 10, 1e-12, "mean")
	almostEqual(t, n.PDF(10), 1/(2*math.Sqrt(2*math.Pi)), 1e-12, "peak density")
}

func TestLogNormalBasics(t *testing.T) {
	l := LogNormal{Mu: 0, Sigma: 1}
	almostEqual(t, l.CDF(1), 0.5, 1e-12, "median at exp(mu)")
	almostEqual(t, l.Mean(), math.Exp(0.5), 1e-12, "mean")
	if l.PDF(-1) != 0 || l.CDF(0) != 0 {
		t.Error("non-positive support should be zero")
	}
	almostEqual(t, l.Quantile(0.5), 1, 1e-9, "median quantile")
}

// Property: for every distribution, Quantile(CDF(x)) ~ x on the support and
// CDF is within [0,1] and monotone.
func TestDistRoundTripProperty(t *testing.T) {
	dists := []Dist{
		Exponential{Lambda: 0.7},
		Weibull{K: 0.9, Lambda: 1.4},
		Weibull{K: 2.3, Lambda: 0.8},
		ExpWeibull{K: 1.2, Lambda: 1.0, Alpha: 2.0},
		Normal{Mu: -1, Sigma: 3},
		LogNormal{Mu: 0.5, Sigma: 0.6},
	}
	for _, d := range dists {
		prev := -1.0
		for i := 1; i < 40; i++ {
			p := float64(i) / 40
			x := d.Quantile(p)
			c := d.CDF(x)
			if math.Abs(c-p) > 1e-6 {
				t.Errorf("%T: CDF(Quantile(%g)) = %g", d, p, c)
			}
			if c < prev-1e-12 {
				t.Errorf("%T: CDF not monotone at p=%g", d, p)
			}
			prev = c
		}
	}
}

// Property: sample means converge to the distribution mean.
func TestDistSamplingMeanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dists := []Dist{
		Exponential{Lambda: 2},
		Weibull{K: 1.6, Lambda: 0.9},
		Normal{Mu: 4, Sigma: 2},
		LogNormal{Mu: 0, Sigma: 0.5},
		ExpWeibull{K: 1.5, Lambda: 1.0, Alpha: 1.5},
	}
	const n = 20000
	for _, d := range dists {
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Rand(rng)
		}
		got := sum / n
		want := d.Mean()
		if math.Abs(got-want) > 0.05*(1+math.Abs(want)) {
			t.Errorf("%T: sample mean %g, dist mean %g", d, got, want)
		}
	}
}

// Property: PDF integrates to ~1 (Simpson over effective support).
func TestDistPDFNormalizationProperty(t *testing.T) {
	dists := []Dist{
		Exponential{Lambda: 1.3},
		Weibull{K: 2, Lambda: 1},
		ExpWeibull{K: 1.4, Lambda: 2, Alpha: 0.8},
		Normal{Mu: 0, Sigma: 1},
		LogNormal{Mu: 0, Sigma: 0.7},
	}
	for _, d := range dists {
		lo := d.Quantile(1e-9)
		hi := d.Quantile(1 - 1e-9)
		if _, isNormal := d.(Normal); !isNormal && lo < 1e-12 {
			lo = 1e-12
		}
		area := simpson(d.PDF, lo, hi, 1<<13)
		almostEqual(t, area, 1, 5e-3, "PDF normalization")
	}
}

func TestUniformOpenNeverBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		u := uniformOpen(rng)
		if u <= 0 || u >= 1 {
			t.Fatalf("uniformOpen returned boundary value %g", u)
		}
	}
}

func TestSimpsonQuadratic(t *testing.T) {
	// Simpson is exact for cubics.
	got := simpson(func(x float64) float64 { return x*x*x - 2*x + 1 }, 0, 2, 8)
	want := 4.0 - 4 + 2 // x^4/4 - x^2 + x over [0,2]
	almostEqual(t, got, want, 1e-12, "simpson cubic")
	// Odd n is rounded up internally.
	got = simpson(func(x float64) float64 { return x }, 0, 1, 3)
	almostEqual(t, got, 0.5, 1e-12, "simpson odd panels")
}

// quick.Check that exponential quantile/CDF relations hold for random rates.
func TestExponentialQuantileProperty(t *testing.T) {
	prop := func(lambdaSeed, pSeed uint16) bool {
		lambda := 0.01 + float64(lambdaSeed%1000)/100
		p := float64(pSeed%9998+1) / 10000
		e := Exponential{Lambda: lambda}
		x := e.Quantile(p)
		return x >= 0 && math.Abs(e.CDF(x)-p) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(44))}); err != nil {
		t.Error(err)
	}
}

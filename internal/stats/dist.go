package stats

import (
	"math"
	"math/rand"
)

// Dist is a continuous univariate distribution. Implementations provide
// density, cumulative probability, quantiles, moments, and sampling with an
// injected random source (no package-level randomness — see the style
// guide's "avoid mutable globals").
type Dist interface {
	// PDF returns the probability density at x.
	PDF(x float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the inverse CDF at probability p in (0,1).
	Quantile(p float64) float64
	// Mean returns the distribution mean.
	Mean() float64
	// Rand draws one sample using rng.
	Rand(rng *rand.Rand) float64
}

// Compile-time interface checks.
var (
	_ Dist = Exponential{}
	_ Dist = Weibull{}
	_ Dist = ExpWeibull{}
	_ Dist = Normal{}
	_ Dist = LogNormal{}
)

// Exponential is the exponential distribution with rate Lambda (> 0). The
// paper fits it to accident speeds (Fig. 12).
type Exponential struct {
	Lambda float64
}

// PDF implements Dist.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Lambda * math.Exp(-e.Lambda*x)
}

// CDF implements Dist.
func (e Exponential) CDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return -math.Expm1(-e.Lambda * x)
}

// Quantile implements Dist.
func (e Exponential) Quantile(p float64) float64 {
	return -math.Log1p(-p) / e.Lambda
}

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Lambda }

// Rand implements Dist by inverse-CDF sampling.
func (e Exponential) Rand(rng *rand.Rand) float64 {
	return e.Quantile(uniformOpen(rng))
}

// Weibull is the two-parameter Weibull distribution with shape K and scale
// Lambda (both > 0). The paper fits it to driver reaction times (Fig. 11).
type Weibull struct {
	K      float64 // shape
	Lambda float64 // scale
}

// PDF implements Dist.
func (w Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if w.K < 1 {
			return math.Inf(1)
		}
		if w.K == 1 {
			return 1 / w.Lambda
		}
		return 0
	}
	z := x / w.Lambda
	return (w.K / w.Lambda) * math.Pow(z, w.K-1) * math.Exp(-math.Pow(z, w.K))
}

// CDF implements Dist.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Lambda, w.K))
}

// Quantile implements Dist.
func (w Weibull) Quantile(p float64) float64 {
	return w.Lambda * math.Pow(-math.Log1p(-p), 1/w.K)
}

// Mean implements Dist: lambda * Gamma(1 + 1/k).
func (w Weibull) Mean() float64 {
	return w.Lambda * math.Gamma(1+1/w.K)
}

// Rand implements Dist by inverse-CDF sampling.
func (w Weibull) Rand(rng *rand.Rand) float64 {
	return w.Quantile(uniformOpen(rng))
}

// ExpWeibull is the exponentiated Weibull distribution: a Weibull CDF raised
// to the power Alpha. With Alpha == 1 it reduces to the Weibull. The paper
// uses an "Exponential-Weibull" fit for the long-tailed pooled reaction-time
// distribution (Fig. 11 caption / §V-A4).
type ExpWeibull struct {
	K      float64 // Weibull shape
	Lambda float64 // Weibull scale
	Alpha  float64 // exponentiation parameter
}

// PDF implements Dist.
func (e ExpWeibull) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := math.Pow(x/e.Lambda, e.K)
	base := -math.Expm1(-z) // 1 - exp(-z)
	if base <= 0 {
		return 0
	}
	return e.Alpha * (e.K / e.Lambda) * math.Pow(x/e.Lambda, e.K-1) *
		math.Exp(-z) * math.Pow(base, e.Alpha-1)
}

// CDF implements Dist.
func (e ExpWeibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(-math.Expm1(-math.Pow(x/e.Lambda, e.K)), e.Alpha)
}

// Quantile implements Dist.
func (e ExpWeibull) Quantile(p float64) float64 {
	inner := math.Pow(p, 1/e.Alpha)
	return e.Lambda * math.Pow(-math.Log1p(-inner), 1/e.K)
}

// Mean implements Dist by adaptive Simpson integration of x f(x) over the
// effective support (no closed form exists).
func (e ExpWeibull) Mean() float64 {
	upper := e.Quantile(1 - 1e-9)
	return simpson(func(x float64) float64 { return x * e.PDF(x) }, 1e-12, upper, 1<<12)
}

// Rand implements Dist by inverse-CDF sampling.
func (e ExpWeibull) Rand(rng *rand.Rand) float64 {
	return e.Quantile(uniformOpen(rng))
}

// Normal is the Gaussian distribution.
type Normal struct {
	Mu    float64
	Sigma float64
}

// PDF implements Dist.
func (n Normal) PDF(x float64) float64 {
	z := (x - n.Mu) / n.Sigma
	return math.Exp(-z*z/2) / (n.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (n Normal) CDF(x float64) float64 {
	return NormalCDF((x - n.Mu) / n.Sigma)
}

// Quantile implements Dist.
func (n Normal) Quantile(p float64) float64 {
	z, err := NormalQuantile(p)
	if err != nil {
		return math.NaN()
	}
	return n.Mu + n.Sigma*z
}

// Mean implements Dist.
func (n Normal) Mean() float64 { return n.Mu }

// Rand implements Dist.
func (n Normal) Rand(rng *rand.Rand) float64 {
	return n.Mu + n.Sigma*rng.NormFloat64()
}

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma)). The synthetic
// generator uses it for per-car DPM heterogeneity (Fig. 4 spreads).
type LogNormal struct {
	Mu    float64 // mean of log X
	Sigma float64 // std dev of log X
}

// PDF implements Dist.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Dist.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return NormalCDF((math.Log(x) - l.Mu) / l.Sigma)
}

// Quantile implements Dist.
func (l LogNormal) Quantile(p float64) float64 {
	z, err := NormalQuantile(p)
	if err != nil {
		return math.NaN()
	}
	return math.Exp(l.Mu + l.Sigma*z)
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 {
	return math.Exp(l.Mu + l.Sigma*l.Sigma/2)
}

// Rand implements Dist.
func (l LogNormal) Rand(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// uniformOpen returns a uniform sample on the open interval (0, 1), so
// inverse-CDF sampling never evaluates a quantile at exactly 0 or 1.
func uniformOpen(rng *rand.Rand) float64 {
	for {
		u := rng.Float64()
		if u > 0 && u < 1 {
			return u
		}
	}
}

// simpson integrates f over [a, b] with n (even) panels using composite
// Simpson's rule.
func simpson(f func(float64) float64, a, b float64, n int) float64 {
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := f(a) + f(b)
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 0 {
			sum += 2 * f(x)
		} else {
			sum += 4 * f(x)
		}
	}
	return sum * h / 3
}

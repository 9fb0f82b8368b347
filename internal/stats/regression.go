package stats

import (
	"errors"
	"math"
)

// LinReg is the result of an ordinary least squares fit y = Intercept +
// Slope*x with the standard Gaussian-error inference quantities.
type LinReg struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination.
	R2 float64
	// SlopeStdErr and InterceptStdErr are the standard errors of the
	// estimates.
	SlopeStdErr     float64
	InterceptStdErr float64
	// SlopeT and SlopeP are the t statistic and two-sided p-value for the
	// null hypothesis Slope == 0.
	SlopeT float64
	SlopeP float64
	// ResidualStdDev is the residual standard error.
	ResidualStdDev float64
	// N is the number of points fit.
	N int
}

// Predict evaluates the fitted line at x.
func (r LinReg) Predict(x float64) float64 { return r.Intercept + r.Slope*x }

// LinearRegression fits y = a + b*x by ordinary least squares. It requires
// at least three points for the inference quantities; with exactly two
// points the line is exact and standard errors are zero.
func LinearRegression(xs, ys []float64) (LinReg, error) {
	xs, ys = PairedDropNaN(xs, ys)
	n := len(xs)
	if n < 2 {
		return LinReg{}, ErrInsufficient
	}
	meanX, _ := Mean(xs)
	meanY, _ := Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - meanX
		dy := ys[i] - meanY
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinReg{}, errors.New("stats: regression requires non-constant x")
	}
	r := LinReg{N: n}
	r.Slope = sxy / sxx
	r.Intercept = meanY - r.Slope*meanX

	var sse float64
	for i := range xs {
		resid := ys[i] - r.Predict(xs[i])
		sse += resid * resid
	}
	if syy > 0 {
		r.R2 = 1 - sse/syy
	} else {
		r.R2 = 1 // constant y fit exactly
	}
	if n > 2 {
		mse := sse / float64(n-2)
		r.ResidualStdDev = math.Sqrt(mse)
		r.SlopeStdErr = math.Sqrt(mse / sxx)
		var sumX2 float64
		for _, x := range xs {
			sumX2 += x * x
		}
		r.InterceptStdErr = math.Sqrt(mse * sumX2 / (float64(n) * sxx))
		if r.SlopeStdErr > 0 {
			r.SlopeT = r.Slope / r.SlopeStdErr
			p, err := StudentTTwoSidedP(r.SlopeT, float64(n-2))
			if err != nil {
				return LinReg{}, err
			}
			r.SlopeP = p
		}
	}
	return r, nil
}

// LogLogRegression fits log10(y) = a + b*log10(x), the form of the paper's
// Fig. 5 and Fig. 9 trend lines. Points with non-positive x or y are
// dropped.
func LogLogRegression(xs, ys []float64) (LinReg, error) {
	lx := Log10All(xs)
	ly := Log10All(ys)
	return LinearRegression(lx, ly)
}

// PearsonResult is a correlation coefficient with its significance test.
type PearsonResult struct {
	R float64 // correlation coefficient in [-1, 1]
	P float64 // two-sided p-value under the t approximation
	N int     // sample size
}

// Pearson computes the Pearson product-moment correlation between xs and ys
// and its two-sided p-value using the exact t transform
// t = r*sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom.
func Pearson(xs, ys []float64) (PearsonResult, error) {
	xs, ys = PairedDropNaN(xs, ys)
	n := len(xs)
	if n < 3 {
		return PearsonResult{}, ErrInsufficient
	}
	meanX, _ := Mean(xs)
	meanY, _ := Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx := xs[i] - meanX
		dy := ys[i] - meanY
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return PearsonResult{}, errors.New("stats: correlation requires non-constant input")
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp tiny floating excursions outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	res := PearsonResult{R: r, N: n}
	if r == 1 || r == -1 {
		res.P = 0
		return res, nil
	}
	df := float64(n - 2)
	t := r * math.Sqrt(df/(1-r*r))
	p, err := StudentTTwoSidedP(t, df)
	if err != nil {
		return PearsonResult{}, err
	}
	res.P = p
	return res, nil
}

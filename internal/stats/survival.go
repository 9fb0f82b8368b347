package stats

import (
	"errors"
	"math"
	"sort"
)

// Survival analysis: the Kaplan–Meier product-limit estimator. In this
// project the "lifetime" is a vehicle's miles driven until a disengagement
// (or accident), and vehicles that never failed are right-censored at their
// total mileage — the §V-C2 "miles between disengagements" metric treated
// properly instead of dropping event-free vehicles.

// Observation is one subject's (possibly censored) lifetime.
type Observation struct {
	// Time is the observed lifetime (here: miles).
	Time float64
	// Censored marks subjects that survived past Time without an event.
	Censored bool
}

// SurvivalPoint is one step of the estimated survival curve.
type SurvivalPoint struct {
	// Time is the event time the curve steps at.
	Time float64
	// Survival is S(t) just after the step.
	Survival float64
	// AtRisk is the risk-set size just before the step.
	AtRisk int
	// Events is the number of events at this time.
	Events int
	// StdErr is Greenwood's standard error of S(t).
	StdErr float64
}

// KaplanMeier is a fitted survival curve.
type KaplanMeier struct {
	Points []SurvivalPoint
	// N is the number of observations; Censored counts them.
	N, Censored int
}

// NewKaplanMeier fits the product-limit estimator to obs.
func NewKaplanMeier(obs []Observation) (*KaplanMeier, error) {
	if len(obs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]Observation, len(obs))
	copy(sorted, obs)
	for _, o := range sorted {
		if o.Time < 0 || math.IsNaN(o.Time) {
			return nil, errors.New("stats: survival times must be non-negative")
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	km := &KaplanMeier{N: len(sorted)}
	s := 1.0
	var greenwood float64 // running sum d/(n(n-d))
	atRisk := len(sorted)
	i := 0
	for i < len(sorted) {
		t := sorted[i].Time
		var events, removed int
		for i < len(sorted) && sorted[i].Time == t {
			if sorted[i].Censored {
				km.Censored++
			} else {
				events++
			}
			removed++
			i++
		}
		if events > 0 {
			d, n := float64(events), float64(atRisk)
			s *= 1 - d/n
			if n > d {
				greenwood += d / (n * (n - d))
			}
			km.Points = append(km.Points, SurvivalPoint{
				Time:     t,
				Survival: s,
				AtRisk:   atRisk,
				Events:   events,
				StdErr:   s * math.Sqrt(greenwood),
			})
		}
		atRisk -= removed
	}
	return km, nil
}

// At returns S(t): the estimated probability of surviving past t.
func (km *KaplanMeier) At(t float64) float64 {
	s := 1.0
	for _, p := range km.Points {
		if p.Time > t {
			break
		}
		s = p.Survival
	}
	return s
}

// MedianTime returns the smallest event time where the survival curve drops
// to 0.5 or below; ok is false when the curve never reaches 0.5 (heavy
// censoring).
func (km *KaplanMeier) MedianTime() (float64, bool) {
	for _, p := range km.Points {
		if p.Survival <= 0.5 {
			return p.Time, true
		}
	}
	return 0, false
}

// LogRank performs the two-sample log-rank test for equality of survival
// curves, returning the chi-square statistic (1 df) and its p-value.
func LogRank(a, b []Observation) (chi2, p float64, err error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, ErrEmpty
	}
	type tagged struct {
		Observation
		group int
	}
	all := make([]tagged, 0, len(a)+len(b))
	for _, o := range a {
		all = append(all, tagged{o, 0})
	}
	for _, o := range b {
		all = append(all, tagged{o, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Time < all[j].Time })

	nAtRisk := [2]float64{float64(len(a)), float64(len(b))}
	var observed0, expected0, variance float64
	i := 0
	for i < len(all) {
		t := all[i].Time
		var events [2]float64
		var removed [2]float64
		for i < len(all) && all[i].Time == t {
			if !all[i].Censored {
				events[all[i].group]++
			}
			removed[all[i].group]++
			i++
		}
		d := events[0] + events[1]
		n := nAtRisk[0] + nAtRisk[1]
		if d > 0 && n > 1 {
			e0 := d * nAtRisk[0] / n
			observed0 += events[0]
			expected0 += e0
			variance += d * (nAtRisk[0] / n) * (nAtRisk[1] / n) * (n - d) / (n - 1)
		}
		nAtRisk[0] -= removed[0]
		nAtRisk[1] -= removed[1]
	}
	if variance <= 0 {
		return 0, 0, errors.New("stats: log-rank degenerate (no comparable events)")
	}
	diff := observed0 - expected0
	chi2 = diff * diff / variance
	cdf, err := ChiSquareCDF(chi2, 1)
	if err != nil {
		return 0, 0, err
	}
	return chi2, 1 - cdf, nil
}

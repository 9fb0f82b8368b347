package core

import (
	"errors"
	"sort"
	"time"

	"avfda/internal/ontology"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

// DPMDistribution is one manufacturer's per-car DPM box plot (Fig. 4).
type DPMDistribution struct {
	Manufacturer schema.Manufacturer
	Box          stats.FiveNum
	// Values holds the underlying per-car DPMs, ascending.
	Values []float64
}

// DPMPerCar reproduces Fig. 4: the distribution of disengagements-per-mile
// across each manufacturer's cars.
func (db *DB) DPMPerCar() []DPMDistribution {
	byMfr := db.Exposure().dpmByMaker()
	var out []DPMDistribution
	for _, m := range db.AnalysisManufacturers() {
		vals := byMfr[m]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		box, err := stats.BoxPlot(vals)
		if err != nil {
			continue
		}
		out = append(out, DPMDistribution{Manufacturer: m, Box: box, Values: vals})
	}
	return out
}

// CumulativePoint is one month's cumulative totals for one manufacturer.
type CumulativePoint struct {
	Month          time.Time
	Miles          float64 // cumulative autonomous miles
	Disengagements float64 // cumulative disengagement count
}

// CumulativeSeries is one manufacturer's Fig. 5 trace with its log-log fit.
type CumulativeSeries struct {
	Manufacturer schema.Manufacturer
	Points       []CumulativePoint
	// Fit is the log10-log10 linear regression of disengagements on miles.
	Fit stats.LinReg
}

// CumulativeDisengagements reproduces Fig. 5: cumulative disengagements vs
// cumulative miles per manufacturer, with linear fits in log-log space.
func (db *DB) CumulativeDisengagements() ([]CumulativeSeries, error) {
	type monthAgg struct {
		miles  float64
		events float64
	}
	byMfr := make(map[schema.Manufacturer]map[time.Time]*monthAgg)
	get := func(m schema.Manufacturer, month time.Time) *monthAgg {
		if byMfr[m] == nil {
			byMfr[m] = make(map[time.Time]*monthAgg)
		}
		a := byMfr[m][month]
		if a == nil {
			a = &monthAgg{}
			byMfr[m][month] = a
		}
		return a
	}
	for _, mm := range db.Mileage {
		get(mm.Manufacturer, mm.Month).miles += mm.Miles
	}
	for _, e := range db.Events {
		month := time.Date(e.Time.Year(), e.Time.Month(), 1, 0, 0, 0, 0, time.UTC)
		get(e.Manufacturer, month).events++
	}
	var out []CumulativeSeries
	for _, m := range db.AnalysisManufacturers() {
		months := byMfr[m]
		if len(months) == 0 {
			continue
		}
		keys := make([]time.Time, 0, len(months))
		for k := range months {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Before(keys[j]) })
		s := CumulativeSeries{Manufacturer: m}
		var cumMiles, cumEvents float64
		for _, k := range keys {
			cumMiles += months[k].miles
			cumEvents += months[k].events
			s.Points = append(s.Points, CumulativePoint{Month: k, Miles: cumMiles, Disengagements: cumEvents})
		}
		xs := make([]float64, len(s.Points))
		ys := make([]float64, len(s.Points))
		for i, p := range s.Points {
			xs[i] = p.Miles
			ys[i] = p.Disengagements
		}
		if fit, err := stats.LogLogRegression(xs, ys); err == nil {
			s.Fit = fit
		}
		out = append(out, s)
	}
	return out, nil
}

// TagFractions is one manufacturer's Fig. 6 stacked bar: the fraction of
// disengagements per fault tag.
type TagFractions struct {
	Manufacturer schema.Manufacturer
	Fractions    map[ontology.Tag]float64
	Total        int
}

// TagBreakdown reproduces Fig. 6.
func (db *DB) TagBreakdown() []TagFractions {
	counts := make(map[schema.Manufacturer]map[ontology.Tag]int)
	totals := make(map[schema.Manufacturer]int)
	for _, e := range db.Events {
		if counts[e.Manufacturer] == nil {
			counts[e.Manufacturer] = make(map[ontology.Tag]int)
		}
		counts[e.Manufacturer][e.Tag]++
		totals[e.Manufacturer]++
	}
	var out []TagFractions
	for _, m := range db.AnalysisManufacturers() {
		total := totals[m]
		if total == 0 {
			continue
		}
		fr := make(map[ontology.Tag]float64, len(counts[m]))
		for tag, n := range counts[m] {
			fr[tag] = float64(n) / float64(total)
		}
		out = append(out, TagFractions{Manufacturer: m, Fractions: fr, Total: total})
	}
	return out
}

// YearDistribution is one manufacturer-year per-car DPM box (Fig. 7).
type YearDistribution struct {
	Manufacturer schema.Manufacturer
	Year         int
	Box          stats.FiveNum
	N            int
}

// DPMByYear reproduces Fig. 7: the per-car DPM distribution aggregated by
// calendar year.
func (db *DB) DPMByYear() []YearDistribution {
	var out []YearDistribution
	for _, year := range []int{2014, 2015, 2016} {
		y := year
		byMfr := db.exposure(func(t time.Time) bool { return t.Year() == y }).dpmByMaker()
		for _, m := range db.AnalysisManufacturers() {
			vals := byMfr[m]
			if len(vals) == 0 {
				continue
			}
			box, err := stats.BoxPlot(vals)
			if err != nil {
				continue
			}
			out = append(out, YearDistribution{Manufacturer: m, Year: y, Box: box, N: len(vals)})
		}
	}
	return out
}

// LogCorrelation is the Fig. 8 pooled result: the Pearson correlation of
// log10(per-car DPM) with log10(cumulative miles) over monthly snapshots of
// every car in the fleet.
type LogCorrelation struct {
	stats.PearsonResult
	// Points is the number of (car, month) snapshots pooled.
	Points int
}

// PooledLogCorrelation reproduces Fig. 8 (paper: r = -0.87, p = 7e-56).
func (db *DB) PooledLogCorrelation() (LogCorrelation, error) {
	xs, ys, err := db.carMonthLogPoints()
	if err != nil {
		return LogCorrelation{}, err
	}
	res, err := stats.Pearson(xs, ys)
	if err != nil {
		return LogCorrelation{}, err
	}
	return LogCorrelation{PearsonResult: res, Points: len(xs)}, nil
}

// carMonthLogPoints builds the pooled (log miles, log DPM) snapshots used
// by Fig. 8.
func (db *DB) carMonthLogPoints() (xs, ys []float64, err error) {
	type snap struct {
		month  time.Time
		miles  float64
		events float64
	}
	series := make(map[carKey][]snap)
	for _, m := range db.Mileage {
		if m.Vehicle == "" {
			continue
		}
		k := carKey{m.Manufacturer, m.Vehicle}
		series[k] = append(series[k], snap{month: m.Month, miles: m.Miles})
	}
	for _, e := range db.Events {
		if e.Vehicle == "" {
			continue
		}
		k := carKey{e.Manufacturer, e.Vehicle}
		month := time.Date(e.Time.Year(), e.Time.Month(), 1, 0, 0, 0, 0, time.UTC)
		series[k] = append(series[k], snap{month: month, events: 1})
	}
	keys := make([]carKey, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].mfr != keys[j].mfr {
			return keys[i].mfr < keys[j].mfr
		}
		return keys[i].car < keys[j].car
	})
	for _, k := range keys {
		ss := series[k]
		sort.SliceStable(ss, func(a, b int) bool { return ss[a].month.Before(ss[b].month) })
		var cumMiles, cumEvents float64
		lastMonth := time.Time{}
		flush := func() {
			if cumMiles > 0 && cumEvents > 0 {
				xs = append(xs, cumMiles)
				ys = append(ys, cumEvents/cumMiles)
			}
		}
		for _, s := range ss {
			if !s.month.Equal(lastMonth) && !lastMonth.IsZero() {
				flush()
			}
			cumMiles += s.miles
			cumEvents += s.events
			lastMonth = s.month
		}
		flush()
	}
	if len(xs) < 3 {
		return nil, nil, errors.New("core: too few car-month points")
	}
	lx, ly := stats.PairedDropNaN(stats.Log10All(xs), stats.Log10All(ys))
	return lx, ly, nil
}

// DPMTrendSeries is one manufacturer's Fig. 9 trace: monthly DPM against
// cumulative miles, with a log-log fit.
type DPMTrendSeries struct {
	Manufacturer schema.Manufacturer
	// CumMiles and DPM are parallel monthly series.
	CumMiles []float64
	DPM      []float64
	Fit      stats.LinReg
	// FitOK reports whether enough positive points existed to fit.
	FitOK bool
}

// DPMTrend reproduces Fig. 9.
func (db *DB) DPMTrend() ([]DPMTrendSeries, error) {
	cum, err := db.CumulativeDisengagements()
	if err != nil {
		return nil, err
	}
	var out []DPMTrendSeries
	for _, s := range cum {
		tr := DPMTrendSeries{Manufacturer: s.Manufacturer}
		var prevMiles, prevEvents float64
		for _, p := range s.Points {
			dMiles := p.Miles - prevMiles
			dEvents := p.Disengagements - prevEvents
			prevMiles, prevEvents = p.Miles, p.Disengagements
			if dMiles <= 0 {
				continue
			}
			tr.CumMiles = append(tr.CumMiles, p.Miles)
			tr.DPM = append(tr.DPM, dEvents/dMiles)
		}
		if fit, err := stats.LogLogRegression(tr.CumMiles, tr.DPM); err == nil {
			tr.Fit = fit
			tr.FitOK = true
		}
		out = append(out, tr)
	}
	return out, nil
}

// ReactionDistribution is one manufacturer's Fig. 10 box plot of driver
// reaction times.
type ReactionDistribution struct {
	Manufacturer schema.Manufacturer
	Box          stats.FiveNum
	Values       []float64
	Mean         float64
}

// ReactionTimes reproduces Fig. 10. Manufacturers without reported reaction
// times are omitted.
func (db *DB) ReactionTimes() []ReactionDistribution {
	byMfr := make(map[schema.Manufacturer][]float64)
	for _, e := range db.Events {
		if e.HasReaction() {
			byMfr[e.Manufacturer] = append(byMfr[e.Manufacturer], e.ReactionSeconds)
		}
	}
	var out []ReactionDistribution
	for _, m := range db.AnalysisManufacturers() {
		vals := byMfr[m]
		if len(vals) == 0 {
			continue
		}
		box, err := stats.BoxPlot(vals)
		if err != nil {
			continue
		}
		mean, _ := stats.Mean(vals)
		out = append(out, ReactionDistribution{Manufacturer: m, Box: box, Values: vals, Mean: mean})
	}
	return out
}

// MeanReaction returns the fleet-wide mean reaction time, excluding
// outliers above cutoff seconds (the paper treats Volkswagen's ~4 h record
// as a measurement error).
func (db *DB) MeanReaction(cutoff float64) (float64, error) {
	var vals []float64
	for _, e := range db.Events {
		if e.HasReaction() && e.ReactionSeconds < cutoff {
			vals = append(vals, e.ReactionSeconds)
		}
	}
	return stats.Mean(vals)
}

// ReactionFit is one manufacturer's Fig. 11 Weibull fit.
type ReactionFit struct {
	Manufacturer schema.Manufacturer
	Weibull      stats.Weibull
	// KS is the Kolmogorov-Smirnov distance of the fit.
	KS float64
	N  int
}

// FitReactionWeibull reproduces Fig. 11 for one manufacturer, excluding
// outliers above cutoff seconds.
func (db *DB) FitReactionWeibull(m schema.Manufacturer, cutoff float64) (ReactionFit, error) {
	var vals []float64
	for _, e := range db.Events {
		if e.Manufacturer == m && e.HasReaction() && e.ReactionSeconds < cutoff && e.ReactionSeconds > 0 {
			vals = append(vals, e.ReactionSeconds)
		}
	}
	w, err := stats.FitWeibull(vals)
	if err != nil {
		return ReactionFit{}, err
	}
	ks, err := stats.KSStatistic(vals, w)
	if err != nil {
		return ReactionFit{}, err
	}
	return ReactionFit{Manufacturer: m, Weibull: w, KS: ks, N: len(vals)}, nil
}

// PooledReactionFit fits the exponentiated Weibull to the pooled
// reaction-time sample (all manufacturers except outliers), the
// "Exponential-Weibull fit" of §V-A4.
func (db *DB) PooledReactionFit(cutoff float64) (stats.ExpWeibull, int, error) {
	var vals []float64
	for _, e := range db.Events {
		if e.HasReaction() && e.ReactionSeconds < cutoff && e.ReactionSeconds > 0 {
			vals = append(vals, e.ReactionSeconds)
		}
	}
	fit, err := stats.FitExpWeibull(vals)
	if err != nil {
		return stats.ExpWeibull{}, 0, err
	}
	return fit, len(vals), nil
}

// ReactionKS compares two manufacturers' reaction-time distributions with
// the two-sample Kolmogorov–Smirnov test (outliers above cutoff excluded).
// The paper contrasts Mercedes-Benz's long-tailed distribution with Waymo's
// concentrated one (Fig. 11); this quantifies the difference.
func (db *DB) ReactionKS(a, b schema.Manufacturer, cutoff float64) (d, p float64, err error) {
	collect := func(m schema.Manufacturer) []float64 {
		var out []float64
		for _, e := range db.Events {
			if e.Manufacturer == m && e.HasReaction() && e.ReactionSeconds < cutoff {
				out = append(out, e.ReactionSeconds)
			}
		}
		return out
	}
	return stats.KSTwoSample(collect(a), collect(b))
}

// AlertnessTrend is the Q4 result for one manufacturer: the correlation of
// driver reaction time with cumulative miles driven.
type AlertnessTrend struct {
	Manufacturer schema.Manufacturer
	stats.PearsonResult
}

// AlertnessTrends reproduces the paper's §V-A4 correlations (Waymo r=0.19,
// Mercedes-Benz r=0.11, both significant at 99%). Reaction times above
// cutoff are excluded.
func (db *DB) AlertnessTrends(cutoff float64) ([]AlertnessTrend, error) {
	// Cumulative fleet miles per manufacturer keyed by month.
	type monthMiles struct {
		month time.Time
		miles float64
	}
	byMfr := make(map[schema.Manufacturer][]monthMiles)
	for _, m := range db.Mileage {
		byMfr[m.Manufacturer] = append(byMfr[m.Manufacturer], monthMiles{m.Month, m.Miles})
	}
	cumBy := make(map[schema.Manufacturer]map[time.Time]float64)
	for m, ms := range byMfr {
		sort.SliceStable(ms, func(a, b int) bool { return ms[a].month.Before(ms[b].month) })
		cum := make(map[time.Time]float64)
		var acc float64
		for _, mm := range ms {
			acc += mm.miles
			cum[mm.month] = acc // last write per month wins: total through month
		}
		cumBy[m] = cum
	}
	var out []AlertnessTrend
	for _, m := range db.AnalysisManufacturers() {
		var xs, ys []float64
		for _, e := range db.Events {
			if e.Manufacturer != m || !e.HasReaction() || e.ReactionSeconds >= cutoff {
				continue
			}
			month := time.Date(e.Time.Year(), e.Time.Month(), 1, 0, 0, 0, 0, time.UTC)
			cm, ok := cumBy[m][month]
			if !ok {
				continue
			}
			xs = append(xs, cm)
			ys = append(ys, e.ReactionSeconds)
		}
		res, err := stats.Pearson(xs, ys)
		if err != nil {
			continue // too few reaction reports for this manufacturer
		}
		out = append(out, AlertnessTrend{Manufacturer: m, PearsonResult: res})
	}
	return out, nil
}

// SpeedSample is one Fig. 12 panel: collision speeds with an exponential
// fit.
type SpeedSample struct {
	Label  string
	Values []float64
	Fit    stats.Exponential
	KS     float64
}

// AccidentSpeeds reproduces Fig. 12: the distribution of AV, other-vehicle,
// and relative speeds across all reported accidents, with exponential fits.
func (db *DB) AccidentSpeeds() ([]SpeedSample, error) {
	var av, other, rel []float64
	for _, a := range db.Accidents {
		if a.AVSpeedMPH >= 0 {
			av = append(av, a.AVSpeedMPH)
		}
		if a.OtherSpeedMPH >= 0 {
			other = append(other, a.OtherSpeedMPH)
		}
		if r := a.RelativeSpeedMPH(); r >= 0 {
			rel = append(rel, r)
		}
	}
	var out []SpeedSample
	for _, s := range []struct {
		label string
		vals  []float64
	}{
		{"AV speed", av},
		{"Manual vehicle speed", other},
		{"Relative speed", rel},
	} {
		if len(s.vals) == 0 {
			continue
		}
		fit, err := stats.FitExponential(s.vals)
		if err != nil {
			return nil, err
		}
		ks, err := stats.KSStatistic(s.vals, fit)
		if err != nil {
			return nil, err
		}
		out = append(out, SpeedSample{Label: s.label, Values: s.vals, Fit: fit, KS: ks})
	}
	return out, nil
}

// RelativeSpeedUnder returns the fraction of accidents whose relative
// collision speed is below the threshold (paper: >80% under 10 mph).
func (db *DB) RelativeSpeedUnder(mph float64) float64 {
	var under, total float64
	for _, a := range db.Accidents {
		r := a.RelativeSpeedMPH()
		if r < 0 {
			continue
		}
		total++
		if r < mph {
			under++
		}
	}
	if total == 0 {
		return 0
	}
	return under / total
}

// MBDDistribution is one manufacturer's distribution of per-vehicle miles
// between disengagements — the replacement reliability metric the paper
// proposes in §V-C2 ("operational hours to failure" being unavailable for
// cars, miles-to-disengagement is the cross-transportation-system
// comparable).
type MBDDistribution struct {
	Manufacturer schema.Manufacturer
	Box          stats.FiveNum
	// Values holds per-vehicle miles-between-disengagements, ascending.
	Values []float64
	// CensoredVehicles counts vehicles with miles but zero disengagements
	// (their MBD is right-censored at their total mileage).
	CensoredVehicles int
}

// MilesBetweenDisengagements computes the paper's proposed per-vehicle
// metric: total autonomous miles divided by disengagement count, per
// vehicle, per manufacturer. Vehicles with zero events are reported as
// censored rather than folded into the distribution.
func (db *DB) MilesBetweenDisengagements() []MBDDistribution {
	byMfr := make(map[schema.Manufacturer][]float64)
	censored := make(map[schema.Manufacturer]int)
	for _, c := range db.Exposure().Cars {
		if c.Miles <= 0 {
			continue
		}
		if c.Events == 0 {
			censored[c.Manufacturer]++
			continue
		}
		byMfr[c.Manufacturer] = append(byMfr[c.Manufacturer], c.Miles/float64(c.Events))
	}
	var out []MBDDistribution
	for _, m := range db.AnalysisManufacturers() {
		vals := byMfr[m]
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		box, err := stats.BoxPlot(vals)
		if err != nil {
			continue
		}
		out = append(out, MBDDistribution{
			Manufacturer:     m,
			Box:              box,
			Values:           vals,
			CensoredVehicles: censored[m],
		})
	}
	return out
}

// AccidentMilesTrend is the §V-B correlation between accident counts and
// cumulative autonomous miles across the manufacturers that reported
// accidents and mileage (paper: r = 0.98, p < 0.01). The paper phrases the
// y-axis as "accidents observed per mile", but r = 0.98 is only consistent
// with raw counts against miles — per-mile rates correlate *negatively*
// with exposure in this data (Waymo: most miles, lowest rate).
func (db *DB) AccidentMilesTrend() (stats.PearsonResult, error) {
	miles := db.MilesBy()
	accBy := make(map[schema.Manufacturer]float64)
	for _, a := range db.Accidents {
		accBy[a.Manufacturer]++
	}
	var xs, ys []float64
	for _, m := range schema.AllManufacturers() {
		if accBy[m] == 0 || miles[m] <= 0 {
			continue
		}
		xs = append(xs, miles[m])
		ys = append(ys, accBy[m])
	}
	return stats.Pearson(xs, ys)
}

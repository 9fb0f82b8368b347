package core

import (
	"math"
	"testing"

	"avfda/internal/calib"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

func TestDPMPerCarFigure4(t *testing.T) {
	db := truthDB(t)
	dists := db.DPMPerCar()
	if len(dists) < 6 {
		t.Fatalf("only %d manufacturers with per-car DPM", len(dists))
	}
	byMfr := make(map[schema.Manufacturer]DPMDistribution)
	for _, d := range dists {
		byMfr[d.Manufacturer] = d
	}
	// Waymo's median is ~100x below the pack (paper Fig. 4).
	waymo := byMfr[schema.Waymo].Box.Median
	benz := byMfr[schema.MercedesBenz].Box.Median
	if benz/waymo < 50 {
		t.Errorf("Benz/Waymo median DPM ratio = %.1f, want >= 50 (paper ~100x+)", benz/waymo)
	}
	// All medians inside the paper's [1e-4, 1] envelope.
	for m, d := range byMfr {
		if d.Box.Median < 1e-4 || d.Box.Median > 1.5 {
			t.Errorf("%s median DPM %.2g outside [1e-4, 1.5]", m, d.Box.Median)
		}
		if d.Box.N != len(d.Values) {
			t.Errorf("%s box N mismatch", m)
		}
	}
}

func TestCumulativeDisengagementsFigure5(t *testing.T) {
	db := truthDB(t)
	series, err := db.CumulativeDisengagements()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 6 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		// Cumulative series are non-decreasing.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Miles < s.Points[i-1].Miles ||
				s.Points[i].Disengagements < s.Points[i-1].Disengagements {
				t.Errorf("%s: cumulative series not monotone", s.Manufacturer)
				break
			}
		}
		// Strong log-log linearity for manufacturers with enough months.
		if len(s.Points) >= 10 && s.Fit.R2 < 0.8 {
			t.Errorf("%s: log-log R2 = %.3f, want >= 0.8", s.Manufacturer, s.Fit.R2)
		}
	}
}

func TestTagBreakdownFigure6(t *testing.T) {
	db := truthDB(t)
	rows := db.TagBreakdown()
	byMfr := make(map[schema.Manufacturer]TagFractions)
	for _, r := range rows {
		byMfr[r.Manufacturer] = r
	}
	// Fractions sum to ~1 per manufacturer.
	for m, r := range byMfr {
		var sum float64
		for _, f := range r.Fractions {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s fractions sum to %.6f", m, sum)
		}
	}
	// Tesla is dominated by Unknown-T (paper: 98.35% Unknown-C).
	if f := byMfr[schema.Tesla].Fractions[ontology.TagUnknownT]; f < 0.9 {
		t.Errorf("Tesla Unknown-T fraction = %.3f, want > 0.9", f)
	}
	// Waymo's largest single tag family is recognition (perception).
	w := byMfr[schema.Waymo].Fractions
	if w[ontology.TagRecognitionSystem] < w[ontology.TagPlanner] {
		t.Error("Waymo recognition should dominate planner tags")
	}
}

func TestDPMByYearFigure7(t *testing.T) {
	db := truthDB(t)
	rows := db.DPMByYear()
	waymo := make(map[int]YearDistribution)
	for _, r := range rows {
		if r.Manufacturer == schema.Waymo {
			waymo[r.Year] = r
		}
	}
	if len(waymo) < 3 {
		t.Fatalf("Waymo years = %d, want 3", len(waymo))
	}
	// Paper: Waymo median DPM drops ~8x from 2014 to 2016.
	drop := waymo[2014].Box.Median / waymo[2016].Box.Median
	if drop < 3 {
		t.Errorf("Waymo 2014->2016 median DPM drop = %.1fx, want >= 3 (paper ~8x)", drop)
	}
	// Bosch increases (planned fault-injection campaigns).
	bosch := make(map[int]YearDistribution)
	for _, r := range rows {
		if r.Manufacturer == schema.Bosch {
			bosch[r.Year] = r
		}
	}
	if len(bosch) >= 2 {
		if bosch[2016].Box.Median <= bosch[2015].Box.Median {
			t.Error("Bosch median DPM should increase year over year")
		}
	}
}

func TestPooledLogCorrelationFigure8(t *testing.T) {
	db := truthDB(t)
	lc, err := db.PooledLogCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: r = -0.87 at p = 7e-56. Shape target: strong negative.
	if lc.R > -0.6 || lc.R < -0.99 {
		t.Errorf("pooled log-log r = %.3f, want in [-0.99, -0.6] (paper -0.87)", lc.R)
	}
	if lc.P > 1e-10 {
		t.Errorf("pooled correlation p = %g, want < 1e-10", lc.P)
	}
	if lc.Points < 100 {
		t.Errorf("pooled points = %d, want >= 100", lc.Points)
	}
}

func TestDPMTrendFigure9(t *testing.T) {
	db := truthDB(t)
	series, err := db.DPMTrend()
	if err != nil {
		t.Fatal(err)
	}
	slopes := make(map[schema.Manufacturer]float64)
	for _, s := range series {
		if s.FitOK {
			slopes[s.Manufacturer] = s.Fit.Slope
		}
	}
	if len(slopes) < 5 {
		t.Fatalf("only %d manufacturers fitted", len(slopes))
	}
	// The paper: DPM decreases with testing "for most manufacturers ...
	// with the exception of Volkswagen, Bosch, and GMCruise". Check the
	// improvers explicitly.
	// Delphi is excluded: Table I itself forces its 2016->2017 rate up
	// (405/16,661 -> 167/3,090 miles), so its trend cannot decline.
	for _, m := range []schema.Manufacturer{
		schema.Waymo, schema.MercedesBenz, schema.Nissan,
	} {
		slope, ok := slopes[m]
		if !ok {
			t.Errorf("%s: no trend fit", m)
			continue
		}
		if slope >= 0 {
			t.Errorf("%s trend slope = %.3f, want negative", m, slope)
		}
	}
	// Bosch regresses (planned fault-injection ramp-up).
	if s, ok := slopes[schema.Bosch]; ok && s < 0 {
		t.Errorf("Bosch trend slope = %.3f, expected non-negative", s)
	}
}

func TestReactionTimesFigure10(t *testing.T) {
	db := truthDB(t)
	rows := db.ReactionTimes()
	byMfr := make(map[schema.Manufacturer]ReactionDistribution)
	for _, r := range rows {
		byMfr[r.Manufacturer] = r
	}
	// Six manufacturers report reaction times.
	for _, m := range []schema.Manufacturer{
		schema.Nissan, schema.Tesla, schema.Delphi, schema.MercedesBenz,
		schema.Volkswagen, schema.Waymo,
	} {
		if _, ok := byMfr[m]; !ok {
			t.Errorf("missing reaction distribution for %s", m)
		}
	}
	// Bosch/GM Cruise do not.
	if _, ok := byMfr[schema.Bosch]; ok {
		t.Error("Bosch should not report reaction times")
	}
	// Fleet-wide mean ~0.85 s excluding the VW outlier.
	mean, err := db.MeanReaction(3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-calib.MeanReactionSeconds) > 0.25 {
		t.Errorf("mean reaction %.3f, paper %.2f", mean, calib.MeanReactionSeconds)
	}
	// The long tail: VW max is the ~4h outlier.
	if byMfr[schema.Volkswagen].Box.Max < 3600 {
		t.Error("VW outlier missing from Fig. 10 data")
	}
	// AV drivers are as alert as non-AV drivers: mean below the non-AV
	// reference (0.82-1.09 s band).
	if mean > calib.NonAVReaction+0.2 {
		t.Errorf("mean reaction %.2f far above non-AV reference %.2f", mean, calib.NonAVReaction)
	}
}

func TestReactionWeibullFitsFigure11(t *testing.T) {
	db := truthDB(t)
	for _, m := range []schema.Manufacturer{schema.MercedesBenz, schema.Waymo} {
		fit, err := db.FitReactionWeibull(m, 3600)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if fit.Weibull.K <= 0 || fit.Weibull.Lambda <= 0 {
			t.Errorf("%s: degenerate fit %+v", m, fit.Weibull)
		}
		if fit.KS > 0.08 {
			t.Errorf("%s: KS = %.3f, want <= 0.08", m, fit.KS)
		}
		want := calib.ReactionDist[m]
		if math.Abs(fit.Weibull.K-want.Shape) > 0.3*want.Shape {
			t.Errorf("%s: shape %.2f vs calibration %.2f", m, fit.Weibull.K, want.Shape)
		}
	}
	// Benz is longer-tailed (smaller shape) than Waymo, as in Fig. 11.
	benz, _ := db.FitReactionWeibull(schema.MercedesBenz, 3600)
	waymo, _ := db.FitReactionWeibull(schema.Waymo, 3600)
	if benz.Weibull.K >= waymo.Weibull.K {
		t.Errorf("Benz shape %.2f should be below Waymo %.2f", benz.Weibull.K, waymo.Weibull.K)
	}
	// Pooled exponentiated-Weibull fit converges.
	pooled, n, err := db.PooledReactionFit(3600)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Errorf("pooled n = %d", n)
	}
	if pooled.K <= 0 || pooled.Lambda <= 0 || pooled.Alpha <= 0 {
		t.Errorf("pooled fit degenerate: %+v", pooled)
	}
	// Missing manufacturer errors.
	if _, err := db.FitReactionWeibull(schema.Bosch, 3600); err == nil {
		t.Error("Bosch fit should fail (no reaction times)")
	}
}

func TestReactionKS(t *testing.T) {
	db := truthDB(t)
	// Benz (long-tailed, shape ~0.85) vs Waymo (concentrated, shape ~1.6):
	// the distributions differ significantly.
	d, p, err := db.ReactionKS(schema.MercedesBenz, schema.Waymo, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0.05 {
		t.Errorf("Benz-vs-Waymo KS D = %.3f, want clearly positive", d)
	}
	if p > 0.01 {
		t.Errorf("Benz-vs-Waymo KS p = %.4f, want significant", p)
	}
	// A manufacturer against itself: identical distributions.
	d, p, err = db.ReactionKS(schema.Waymo, schema.Waymo, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 || p != 1 {
		t.Errorf("self KS: D=%g p=%g", d, p)
	}
	// A manufacturer without reaction times errors.
	if _, _, err := db.ReactionKS(schema.Bosch, schema.Waymo, 3600); err == nil {
		t.Error("Bosch has no reaction times: want error")
	}
}

func TestAlertnessTrendsQ4(t *testing.T) {
	db := truthDB(t)
	trends, err := db.AlertnessTrends(3600)
	if err != nil {
		t.Fatal(err)
	}
	byMfr := make(map[schema.Manufacturer]AlertnessTrend)
	for _, tr := range trends {
		byMfr[tr.Manufacturer] = tr
	}
	// Paper: positive correlation for Waymo (0.19) and Benz (0.11), both
	// significant. Shape: positive and significant at 99%.
	for _, m := range []schema.Manufacturer{schema.Waymo, schema.MercedesBenz} {
		tr, ok := byMfr[m]
		if !ok {
			t.Fatalf("missing alertness trend for %s", m)
		}
		if tr.R <= 0 {
			t.Errorf("%s reaction-vs-miles r = %.3f, want positive", m, tr.R)
		}
		if tr.P > 0.01 {
			t.Errorf("%s alertness p = %.4f, want < 0.01", m, tr.P)
		}
		if tr.R > 0.6 {
			t.Errorf("%s alertness r = %.3f implausibly strong", m, tr.R)
		}
	}
}

func TestAccidentSpeedsFigure12(t *testing.T) {
	db := truthDB(t)
	samples, err := db.AccidentSpeeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("speed panels = %d, want 3 (AV, MV, relative)", len(samples))
	}
	for _, s := range samples {
		if s.Fit.Lambda <= 0 {
			t.Errorf("%s: bad exponential fit", s.Label)
		}
		if len(s.Values) < 20 {
			t.Errorf("%s: only %d speeds", s.Label, len(s.Values))
		}
	}
	// Paper: >80% of collisions at relative speed < 10 mph. Small-n
	// sampling noise allowed.
	if frac := db.RelativeSpeedUnder(10); frac < 0.65 {
		t.Errorf("relative speed <10mph fraction = %.2f, want > 0.65", frac)
	}
	// AV speeds are lower than other-vehicle speeds on average.
	var avMean, mvMean float64
	for _, s := range samples {
		switch s.Label {
		case "AV speed":
			avMean = 1 / s.Fit.Lambda
		case "Manual vehicle speed":
			mvMean = 1 / s.Fit.Lambda
		}
	}
	if avMean >= mvMean {
		t.Errorf("AV mean speed %.1f should be below MV %.1f", avMean, mvMean)
	}
}

func TestAccidentMilesTrend(t *testing.T) {
	db := truthDB(t)
	res, err := db.AccidentMilesTrend()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: r = 0.98 at p < 0.01. With only four manufacturer points and
	// GM Cruise's 14 accidents at ~10k miles, the published counts cannot
	// produce 0.98 (see EXPERIMENTS.md); the reproducible shape is a
	// strong positive correlation dominated by Waymo's exposure.
	if res.R < 0.7 {
		t.Errorf("accident-miles r = %.3f, want >= 0.7 (paper 0.98)", res.R)
	}
	if res.N < 4 {
		t.Errorf("accident-miles points = %d, want 4", res.N)
	}
}

func TestMilesBetweenDisengagements(t *testing.T) {
	db := truthDB(t)
	dists := db.MilesBetweenDisengagements()
	if len(dists) < 6 {
		t.Fatalf("MBD manufacturers = %d", len(dists))
	}
	byMfr := make(map[schema.Manufacturer]MBDDistribution)
	for _, d := range dists {
		byMfr[d.Manufacturer] = d
	}
	// MBD is the reciprocal view of DPM: Waymo's median MBD must dwarf the
	// pack's (paper: 262 fleet-average miles per disengagement hides a
	// ~1000x spread).
	waymo := byMfr[schema.Waymo]
	bosch := byMfr[schema.Bosch]
	if waymo.Box.Median < 50*bosch.Box.Median {
		t.Errorf("Waymo MBD median %.1f not >> Bosch %.1f", waymo.Box.Median, bosch.Box.Median)
	}
	// MBD medians are roughly 1/DPM medians.
	rel, err := db.Exposure().ReliabilityVsHuman()
	if err != nil {
		t.Fatal(err)
	}
	dpm := make(map[schema.Manufacturer]float64)
	for _, r := range rel {
		dpm[r.Manufacturer] = r.MedianDPM
	}
	for m, d := range byMfr {
		if dpm[m] <= 0 {
			continue
		}
		product := d.Box.Median * dpm[m]
		if product < 0.2 || product > 5 {
			t.Errorf("%s: MBD median x DPM median = %.2f, want O(1)", m, product)
		}
	}
	// Waymo has censored (event-free) vehicles; Bosch should not.
	if waymo.CensoredVehicles == 0 {
		t.Error("Waymo should have event-free vehicles")
	}
	for _, d := range dists {
		for i := 1; i < len(d.Values); i++ {
			if d.Values[i] < d.Values[i-1] {
				t.Fatalf("%s MBD values not sorted", d.Manufacturer)
			}
		}
	}
}

func TestManufacturerListings(t *testing.T) {
	db := truthDB(t)
	var all []schema.Manufacturer
	for _, m := range db.Exposure().Makers {
		all = append(all, m.Manufacturer)
	}
	analysis := db.AnalysisManufacturers()
	if len(all) < len(analysis) {
		t.Error("analysis set should be a subset")
	}
	// Uber appears in the full set (accident) but not in analysis.
	foundUber := false
	for _, m := range all {
		if m == schema.UberATC {
			foundUber = true
		}
	}
	if !foundUber {
		t.Error("Uber missing from full manufacturer list")
	}
	for _, m := range analysis {
		if m == schema.UberATC {
			t.Error("Uber must be excluded from analysis manufacturers")
		}
	}
	if len(analysis) != 8 {
		t.Errorf("analysis manufacturers = %d, want 8", len(analysis))
	}
}

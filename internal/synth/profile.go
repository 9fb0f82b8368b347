// Package synth generates the synthetic AV field-data corpus that stands in
// for the proprietary CA DMV scans (see DESIGN.md §3).
//
// Generation is calibrated against every aggregate the paper publishes
// (package calib): per-manufacturer fleet sizes, autonomous miles,
// disengagement and accident counts are matched exactly; fault-category
// mixes, modalities, reaction-time distributions, temporal DPM trends, and
// accident speeds are matched in distribution. Event counts are allocated
// with largest-remainder rounding so totals are exact while attribute
// sampling stays random (seeded, deterministic).
//
// Generate is the one entry point and Config.Seed its one input: every
// seed yields the calibrated two-release corpus of about 1.1M autonomous
// miles, byte-identical across runs.
package synth

import (
	"fmt"
	"time"

	"avfda/internal/calib"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

// reportWindow returns the month range [first, last] covered by a DMV
// report year. The 2015–2016 release spans the program start (September
// 2014) through November 2015; the 2016–2017 release spans December 2015
// through November 2016.
func reportWindow(y schema.ReportYear) (first, last time.Time) {
	switch y {
	case schema.Report2016:
		return monthOf(2014, time.September), monthOf(2015, time.November)
	default:
		return monthOf(2015, time.December), monthOf(2016, time.November)
	}
}

// monthOf returns the first instant of a calendar month, UTC.
func monthOf(year int, m time.Month) time.Time {
	return time.Date(year, m, 1, 0, 0, 0, 0, time.UTC)
}

// monthsBetween lists month starts from first to last inclusive.
func monthsBetween(first, last time.Time) []time.Time {
	var out []time.Time
	for m := first; !m.After(last); m = m.AddDate(0, 1, 0) {
		out = append(out, m)
	}
	return out
}

// profile carries everything needed to generate one manufacturer's data in
// one report year.
type profile struct {
	mfr   schema.Manufacturer
	year  schema.ReportYear
	stats calib.FleetStats
	// cars is the modeled vehicle count (Table I value, or the synth
	// substitute when the report shows a dash).
	cars int
	// activeMonths is the subset of the report window in which this
	// manufacturer tested.
	activeMonths []time.Time
	// category is the fault-category mix target.
	category calib.CategoryPct
	// modality is the disengagement modality mix target.
	modality calib.ModalityPct
	// reaction is the reaction-time distribution; nil when the vendor
	// does not report reaction times.
	reaction *stats.Weibull
}

// vehicleID names the i-th (zero-based) car of this profile's fleet.
func (p profile) vehicleID(i int) schema.VehicleID {
	return schema.VehicleID(fmt.Sprintf("%s-%d-car%02d", p.mfr, int(p.year), i+1))
}

// activityWindow returns the months a manufacturer was actually testing in
// a report year. Most tested through the whole window; late entrants
// (Tesla, Ford, BMW, GM Cruise in year one) have shorter spans, mirroring
// the miles they reported.
func activityWindow(m schema.Manufacturer, y schema.ReportYear) []time.Time {
	first, last := reportWindow(y)
	switch {
	case m == schema.GMCruise && y == schema.Report2016:
		first = monthOf(2015, time.June)
	case m == schema.Tesla && y == schema.Report2017:
		first = monthOf(2016, time.October)
	case m == schema.Ford && y == schema.Report2017:
		first = monthOf(2016, time.October)
	case m == schema.BMW && y == schema.Report2017:
		first = monthOf(2016, time.April)
		last = monthOf(2016, time.April)
	}
	return monthsBetween(first, last)
}

// profiles builds the generation profile list for every manufacturer-year
// with reported activity (Table I), in stable order.
func profiles() []profile {
	var out []profile
	for _, m := range schema.AllManufacturers() {
		for _, y := range schema.ReportYears() {
			st, ok := calib.TableI[m][y]
			if !ok || !st.Reported() {
				continue
			}
			p := profile{
				mfr:          m,
				year:         y,
				stats:        st,
				cars:         calib.CarCountForSynth(m, y),
				activeMonths: activityWindow(m, y),
				category:     calib.SynthCategory[m],
				modality:     calib.TableV[m],
			}
			if w, ok := calib.ReactionDist[m]; ok {
				p.reaction = &stats.Weibull{K: w.Shape, Lambda: w.Scale}
			}
			out = append(out, p)
		}
	}
	return out
}

// accidentAllocation returns the number of accidents to generate per
// manufacturer-year, from Table I's accident column (Uber's single
// accident-only report included).
func accidentAllocation(m schema.Manufacturer, y schema.ReportYear) int {
	st, ok := calib.TableI[m][y]
	if !ok || st.Accidents == calib.Unreported {
		return 0
	}
	return st.Accidents
}

package core

import (
	"errors"
	"fmt"

	"avfda/internal/calib"
	"avfda/internal/schema"
)

// Context-conditioned analysis: the paper's threats-to-validity section
// (§VI) notes that "not all miles are equivalent" — manufacturers test in
// different environments, and where the data reports road type and weather
// the paper breaks disengagements out by them. These analyses condition
// the failure data on the reported context.

// RoadRisk is one road type's share of disengagements relative to its
// share of autonomous miles (from the §III-C road mix).
type RoadRisk struct {
	Road schema.RoadType
	// Events is the disengagement count on this road type.
	Events int
	// EventShare is the fraction of all context-reporting disengagements.
	EventShare float64
	// MileShare is the fraction of autonomous miles driven on this road
	// type (paper §III-C).
	MileShare float64
	// RelativeRisk is EventShare / MileShare: >1 means the road type
	// produces more than its mileage share of disengagements.
	RelativeRisk float64
}

// RoadBreakdown conditions disengagements on road type. Events without a
// reported road type are excluded (and counted in the second return).
func (db *DB) RoadBreakdown() ([]RoadRisk, int) {
	counts := make(map[schema.RoadType]int)
	var total, unknown int
	for _, e := range db.Events {
		if e.Road == schema.RoadUnknown {
			unknown++
			continue
		}
		counts[e.Road]++
		total++
	}
	var out []RoadRisk
	for _, rt := range []schema.RoadType{
		schema.RoadCityStreet, schema.RoadHighway, schema.RoadInterstate,
		schema.RoadFreeway, schema.RoadParkingLot, schema.RoadSuburban,
		schema.RoadRural,
	} {
		n := counts[rt]
		if n == 0 {
			continue
		}
		r := RoadRisk{
			Road:      rt,
			Events:    n,
			MileShare: calib.RoadMix[rt],
		}
		if total > 0 {
			r.EventShare = float64(n) / float64(total)
		}
		if r.MileShare > 0 {
			r.RelativeRisk = r.EventShare / r.MileShare
		}
		out = append(out, r)
	}
	return out, unknown
}

// WeatherBreakdown counts disengagements per reported weather condition.
func (db *DB) WeatherBreakdown() map[schema.Weather]int {
	out := make(map[schema.Weather]int)
	for _, e := range db.Events {
		out[e.Weather]++
	}
	return out
}

// UnderreportingRow is one point of the §VI sensitivity sweep: if a
// fraction u of disengagements/accidents went unreported, the true rates
// are the observed ones scaled by 1/(1-u).
type UnderreportingRow struct {
	// Unreported is the assumed unreported fraction in [0, 1).
	Unreported float64
	// TrueDPM and TrueAPM are the corrected corpus-wide rates.
	TrueDPM, TrueAPM float64
	// RelToHuman is the corrected corpus-wide accident rate relative to
	// the 2e-6/mile human baseline.
	RelToHuman float64
}

// UnderreportingSensitivity sweeps the §VI underreporting threat: the paper
// notes that manufacturers' interpretation of "safe operation" varies and
// regulators cannot verify completeness, so observed counts are lower
// bounds. Each row reports the corrected corpus-wide rates under an assumed
// unreported fraction.
func (db *DB) UnderreportingSensitivity(fractions []float64) ([]UnderreportingRow, error) {
	var miles float64
	for _, m := range db.Mileage {
		miles += m.Miles
	}
	if miles <= 0 {
		return nil, errors.New("core: no autonomous miles")
	}
	obsDPM := float64(len(db.Events)) / miles
	obsAPM := float64(len(db.Accidents)) / miles
	out := make([]UnderreportingRow, 0, len(fractions))
	for _, u := range fractions {
		if u < 0 || u >= 1 {
			return nil, fmt.Errorf("core: unreported fraction %g outside [0,1)", u)
		}
		scale := 1 / (1 - u)
		r := UnderreportingRow{
			Unreported: u,
			TrueDPM:    obsDPM * scale,
			TrueAPM:    obsAPM * scale,
		}
		r.RelToHuman = r.TrueAPM / calib.HumanAPM
		out = append(out, r)
	}
	return out, nil
}

package synth

import (
	"math/rand"
	"time"

	"avfda/internal/calib"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

// accidentLocations are intersection-adjacent urban locations in the AV
// testing areas; the paper observes that all reported accidents occurred at
// low speed near intersections on urban streets.
var accidentLocations = []string{
	"El Camino Real & Clark Av, Mountain View, CA",
	"South Shoreline Blvd & Highschool Way, Mountain View, CA",
	"Castro St & W El Camino Real, Mountain View, CA",
	"Valencia St & 16th St, San Francisco, CA",
	"Harrison St & 8th St, San Francisco, CA",
	"1st St & Santa Clara St, San Jose, CA",
	"Middlefield Rd & Moffett Blvd, Mountain View, CA",
	"Folsom St & 5th St, San Francisco, CA",
}

// accidentNarratives are human-written incident descriptions. Most are the
// minor rear-end and side-swipe collisions the paper reports.
var accidentNarratives = []string{
	"The AV was stopped at a red light when it was struck from behind by a conventional vehicle. Minor bumper damage, no injuries.",
	"While yielding to a pedestrian in the crosswalk, the AV braked and the following vehicle made contact with its rear bumper at low speed.",
	"The AV was proceeding through the intersection when another vehicle changing lanes side-swiped its left rear panel.",
	"The AV had signaled and begun a right turn when a vehicle in the adjacent lane moved into its path, causing a minor side-swipe.",
	"The AV was creeping forward to gain visibility at the intersection; the driver behind anticipated a departure and made rear contact.",
	"A vehicle backing out of a driveway contacted the stationary AV's front quarter panel at parking-lot speed.",
	"The AV slowed for cross traffic; the following driver, looking away, failed to stop in time and rear-ended the AV.",
	"During a lane change the AV aborted the maneuver for a fast-approaching vehicle and was clipped on the rear corner.",
}

// caseStudyAccidents encodes the paper's two §II case-study collisions,
// both Waymo vehicles in Mountain View within the 2015-2016 reporting
// window.
func caseStudyAccidents() []schema.Accident {
	return []schema.Accident{
		{
			Manufacturer: schema.Waymo,
			Vehicle:      "Waymo-1-car01",
			ReportYear:   schema.Report2016,
			Time:         time.Date(2015, time.October, 8, 15, 40, 0, 0, time.UTC),
			Location:     "South Shoreline Blvd & Highschool Way, Mountain View, CA",
			Narrative: "The AV in autonomous mode decided to yield to a pedestrian " +
				"crossing at the intersection but did not stop. The test driver " +
				"proactively took control as a precaution. A vehicle ahead was " +
				"also yielding and a vehicle to the rear in the adjacent lane was " +
				"changing lanes; the driver could only brake, and the rear vehicle " +
				"collided with the back of the AV. Disengagement logged as " +
				"incorrect behavior prediction.",
			AVSpeedMPH:       4,
			OtherSpeedMPH:    10,
			InAutonomousMode: false, // driver had taken over moments before impact
		},
		{
			Manufacturer: schema.Waymo,
			Vehicle:      "Waymo-1-car02",
			ReportYear:   schema.Report2016,
			Time:         time.Date(2015, time.August, 20, 11, 5, 0, 0, time.UTC),
			Location:     "El Camino Real & Clark Av, Mountain View, CA",
			Narrative: "The AV in autonomous mode signaled a right turn, decelerated, " +
				"and came to a complete stop, then moved toward the intersection to " +
				"let the recognition system analyze cross traffic. The driver of the " +
				"rear vehicle interpreted the movement as the AV continuing its turn, " +
				"started moving, and collided with the rear of the AV. Disengagement " +
				"logged as: disengage for a recklessly behaving road user.",
			AVSpeedMPH:       1,
			OtherSpeedMPH:    5,
			InAutonomousMode: true,
		},
	}
}

// generateAccidents appends p's accident reports to t. Waymo's
// 2015-2016 release includes the two case-study collisions first; remaining
// accidents are drawn from the narrative/location pools with exponential
// collision speeds (Fig. 12). Vehicles are assigned in proportion to their
// mileage weights so accident exposure tracks miles driven.
func (t *Truth) generateAccidents(p profile, rng *rand.Rand,
	vehicles []schema.VehicleID, mileWeights []float64,
) {
	n := accidentAllocation(p.mfr, p.year)
	if n == 0 {
		return
	}
	if p.mfr == schema.Waymo && p.year == schema.Report2016 {
		cs := caseStudyAccidents()
		t.Corpus.Accidents = append(t.Corpus.Accidents, cs...)
		n -= len(cs)
	}
	avSpeed := stats.Exponential{Lambda: 1 / calib.AVSpeedMean}
	relSpeed := stats.Exponential{Lambda: 1 / calib.RelSpeedMean}
	first, last := reportWindow(p.year)
	months := monthsBetween(first, last)
	for i := 0; i < n; i++ {
		month := months[rng.Intn(len(months))]
		av := clamp(avSpeed.Rand(rng), 0, 30)
		rel := relSpeed.Rand(rng)
		other := av + rel
		if rng.Float64() >= calib.FasterOtherShare {
			other = av - rel
		}
		a := schema.Accident{
			Manufacturer:     p.mfr,
			ReportYear:       p.year,
			Time:             randomInstantInMonth(month, rng),
			Location:         accidentLocations[rng.Intn(len(accidentLocations))],
			Narrative:        accidentNarratives[rng.Intn(len(accidentNarratives))],
			AVSpeedMPH:       av,
			OtherSpeedMPH:    clamp(other, 0, 40),
			InAutonomousMode: rng.Float64() < 0.8,
		}
		// The DMV redacted vehicle identification on a subset of reports
		// (paper §V-B), preventing per-vehicle APM computation. GM
		// Cruise's filings are modeled fully redacted.
		redactP := 0.3
		if p.mfr == schema.GMCruise {
			redactP = 1
		}
		if rng.Float64() < redactP || len(vehicles) == 0 {
			a.Redacted = true
		} else {
			a.Vehicle = vehicles[drawIndexWeighted(mileWeights, rng)]
		}
		t.Corpus.Accidents = append(t.Corpus.Accidents, a)
	}
}

// drawIndexWeighted samples an index proportionally to weights, falling
// back to uniform when weights are degenerate.
func drawIndexWeighted(weights []float64, rng *rand.Rand) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// clamp bounds v to [lo, hi].
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

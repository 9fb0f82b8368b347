// Package schema defines the normalized data model shared by every stage of
// the AV field-data analysis pipeline.
//
// The CA DMV does not enforce a report format, so raw reports differ across
// manufacturers and across report years. Stage II of the pipeline (package
// parse) converts every vendor format into the types defined here; all later
// stages (NLP tagging, statistical analysis, reporting) operate exclusively
// on these types.
package schema

import (
	"fmt"
	"strings"
	"time"
)

// Manufacturer identifies an AV manufacturer present in the CA DMV dataset.
type Manufacturer string

// The twelve manufacturers covered by the 2016 and 2017 DMV data releases.
const (
	MercedesBenz Manufacturer = "Mercedes-Benz"
	Bosch        Manufacturer = "Bosch"
	Delphi       Manufacturer = "Delphi"
	GMCruise     Manufacturer = "GMCruise"
	Nissan       Manufacturer = "Nissan"
	Tesla        Manufacturer = "Tesla"
	Volkswagen   Manufacturer = "Volkswagen"
	Waymo        Manufacturer = "Waymo"
	UberATC      Manufacturer = "Uber ATC"
	Honda        Manufacturer = "Honda"
	Ford         Manufacturer = "Ford"
	BMW          Manufacturer = "BMW"
)

// AllManufacturers lists every manufacturer in the dataset in the order used
// by the paper's Table I.
func AllManufacturers() []Manufacturer {
	return []Manufacturer{
		MercedesBenz, Bosch, Delphi, GMCruise, Nissan, Tesla,
		Volkswagen, Waymo, UberATC, Honda, Ford, BMW,
	}
}

// AnalysisManufacturers lists the eight manufacturers with enough reported
// disengagements for statistically meaningful analysis. Uber, BMW, Ford, and
// Honda reported too few events and are excluded, as in the paper.
func AnalysisManufacturers() []Manufacturer {
	return []Manufacturer{
		MercedesBenz, Bosch, Delphi, GMCruise, Nissan, Tesla,
		Volkswagen, Waymo,
	}
}

// manufacturerPunct drops or blanks the punctuation in vendor names.
var manufacturerPunct = strings.NewReplacer(".", "", ",", "", "(", " ", ")", " ")

// ParseManufacturer resolves the many vendor-name spellings found in raw
// reports ("Google", "Waymo (Google)", "Delphi Automotive", ...) to a
// canonical Manufacturer. The second return value reports whether the name
// was recognized.
func ParseManufacturer(name string) (Manufacturer, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	key = manufacturerPunct.Replace(key)
	key = strings.Join(strings.Fields(key), " ")
	switch key {
	case "mercedes-benz", "mercedes benz", "benz", "mercedes", "daimler":
		return MercedesBenz, true
	case "bosch", "robert bosch", "robert bosch llc":
		return Bosch, true
	case "delphi", "delphi automotive", "aptiv":
		return Delphi, true
	case "gmcruise", "gm cruise", "cruise", "general motors", "gm", "cruise automation":
		return GMCruise, true
	case "nissan", "nissan north america":
		return Nissan, true
	case "tesla", "tesla motors":
		return Tesla, true
	case "volkswagen", "vw", "volkswagen group of america":
		return Volkswagen, true
	case "waymo", "google", "waymo google", "google auto", "google auto llc":
		return Waymo, true
	case "uber", "uber atc", "uber advanced technologies":
		return UberATC, true
	case "honda", "honda r&d americas":
		return Honda, true
	case "ford", "ford motor company":
		return Ford, true
	case "bmw", "bmw of north america":
		return BMW, true
	default:
		return "", false
	}
}

// ReportYear identifies one of the two annual DMV data releases covered by
// the study.
type ReportYear int

const (
	// Report2016 is the 2015–2016 release (data through Nov 2015).
	Report2016 ReportYear = iota + 1
	// Report2017 is the 2016–2017 release (data through Nov 2016).
	Report2017
)

// String implements fmt.Stringer.
func (y ReportYear) String() string {
	switch y {
	case Report2016:
		return "2015-2016"
	case Report2017:
		return "2016-2017"
	default:
		return fmt.Sprintf("ReportYear(%d)", int(y))
	}
}

// ReportYears lists both releases in chronological order.
func ReportYears() []ReportYear { return []ReportYear{Report2016, Report2017} }

// StudyStart and StudyEnd bound the 26-month analysis window
// (September 2014 through November 2016).
var (
	StudyStart = time.Date(2014, time.September, 1, 0, 0, 0, 0, time.UTC)
	StudyEnd   = time.Date(2016, time.November, 30, 23, 59, 59, 0, time.UTC)
)

// Modality describes how a disengagement was initiated.
type Modality int

// Disengagement modalities. Manual disengagements are cautionary actions by
// the safety driver; automatic ones indicate the ADS detected its own
// failure; planned ones come from declared fault-injection campaigns
// (Bosch and GM Cruise report all disengagements as planned tests).
const (
	ModalityUnknown Modality = iota
	ModalityAutomatic
	ModalityManual
	ModalityPlanned
)

// String implements fmt.Stringer.
func (m Modality) String() string {
	switch m {
	case ModalityAutomatic:
		return "Automatic"
	case ModalityManual:
		return "Manual"
	case ModalityPlanned:
		return "Planned"
	default:
		return "Unknown"
	}
}

// ParseModality maps free-text modality descriptions to a Modality.
func ParseModality(s string) Modality {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "automatic", "auto", "automated", "system", "av":
		return ModalityAutomatic
	case "manual", "driver", "safe operation", "test driver":
		return ModalityManual
	case "planned", "planned test", "test":
		return ModalityPlanned
	default:
		return ModalityUnknown
	}
}

// RoadType categorizes where an event occurred. The dataset covers nine
// distinct road types; the paper aggregates them as below.
type RoadType int

// Road types in the dataset.
const (
	RoadUnknown RoadType = iota
	RoadCityStreet
	RoadHighway
	RoadInterstate
	RoadFreeway
	RoadParkingLot
	RoadSuburban
	RoadRural
)

// String implements fmt.Stringer.
func (r RoadType) String() string {
	switch r {
	case RoadCityStreet:
		return "city street"
	case RoadHighway:
		return "highway"
	case RoadInterstate:
		return "interstate"
	case RoadFreeway:
		return "freeway"
	case RoadParkingLot:
		return "parking lot"
	case RoadSuburban:
		return "suburban"
	case RoadRural:
		return "rural"
	default:
		return "unknown"
	}
}

// ParseRoadType maps free-text road descriptions to a RoadType.
func ParseRoadType(s string) RoadType {
	key := strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.Contains(key, "city"), strings.Contains(key, "street"), strings.Contains(key, "urban") && !strings.Contains(key, "suburban"):
		return RoadCityStreet
	case strings.Contains(key, "interstate"):
		return RoadInterstate
	case strings.Contains(key, "freeway"):
		return RoadFreeway
	case strings.Contains(key, "highway"):
		return RoadHighway
	case strings.Contains(key, "parking"):
		return RoadParkingLot
	case strings.Contains(key, "suburban"):
		return RoadSuburban
	case strings.Contains(key, "rural"):
		return RoadRural
	default:
		return RoadUnknown
	}
}

// Weather categorizes reported conditions during an event.
type Weather int

// Weather conditions reported by manufacturers.
const (
	WeatherUnknown Weather = iota
	WeatherSunny
	WeatherCloudy
	WeatherRaining
	WeatherFoggy
)

// String implements fmt.Stringer.
func (w Weather) String() string {
	switch w {
	case WeatherSunny:
		return "sunny"
	case WeatherCloudy:
		return "cloudy"
	case WeatherRaining:
		return "raining"
	case WeatherFoggy:
		return "foggy"
	default:
		return "unknown"
	}
}

// ParseWeather maps free-text weather descriptions to a Weather value.
func ParseWeather(s string) Weather {
	key := strings.ToLower(s)
	switch {
	case strings.Contains(key, "sun"), strings.Contains(key, "dry"), strings.Contains(key, "clear"):
		return WeatherSunny
	case strings.Contains(key, "rain"), strings.Contains(key, "wet"), strings.Contains(key, "shower"):
		return WeatherRaining
	case strings.Contains(key, "fog"):
		return WeatherFoggy
	case strings.Contains(key, "cloud"), strings.Contains(key, "overcast"):
		return WeatherCloudy
	default:
		return WeatherUnknown
	}
}

// VehicleID identifies one AV prototype within a manufacturer's fleet.
type VehicleID string

// Disengagement is one normalized disengagement event: a transfer of control
// from the autonomous driving system to the human safety driver.
type Disengagement struct {
	// Manufacturer that reported the event.
	Manufacturer Manufacturer `json:"manufacturer"`
	// Vehicle involved. Empty when the vendor reports only fleet-level data.
	Vehicle VehicleID `json:"vehicle,omitempty"`
	// ReportYear is the DMV release the event came from.
	ReportYear ReportYear `json:"reportYear"`
	// Time of the event. Vendors report at varying granularity; Time is
	// always within the study window and at least month-accurate.
	Time time.Time `json:"time"`
	// Cause is the raw natural-language description of the disengagement
	// cause written by the manufacturer (post-OCR).
	Cause string `json:"cause"`
	// Modality records who initiated the disengagement.
	Modality Modality `json:"modality"`
	// Road and Weather are optional context fields; zero values mean
	// "not reported".
	Road    RoadType `json:"road,omitempty"`
	Weather Weather  `json:"weather,omitempty"`
	// ReactionSeconds is the driver reaction time in seconds: the elapsed
	// time from the takeover alert to the driver assuming manual control.
	// Negative when not reported.
	ReactionSeconds float64 `json:"reactionSeconds"`
}

// HasReaction reports whether a driver reaction time was reported.
func (d Disengagement) HasReaction() bool { return d.ReactionSeconds >= 0 }

// Accident is one normalized accident report: an actual collision involving
// an AV (with other vehicles, pedestrians, or property).
type Accident struct {
	Manufacturer Manufacturer `json:"manufacturer"`
	// Vehicle is empty when the DMV redacted the VIN/registration, which
	// prevents direct per-vehicle APM computation (paper §V-B).
	Vehicle    VehicleID  `json:"vehicle,omitempty"`
	ReportYear ReportYear `json:"reportYear"`
	Time       time.Time  `json:"time"`
	// Location is a free-text location ("El Camino Real & Clark Av,
	// Mountain View CA").
	Location string `json:"location"`
	// Narrative is the human-written description of the incident.
	Narrative string `json:"narrative"`
	// AVSpeedMPH and OtherSpeedMPH are the speeds of the AV and the other
	// vehicle at collision, in miles per hour. Negative when unknown.
	AVSpeedMPH    float64 `json:"avSpeedMPH"`
	OtherSpeedMPH float64 `json:"otherSpeedMPH"`
	// InAutonomousMode reports whether the AV was in autonomous mode at the
	// time of collision.
	InAutonomousMode bool `json:"inAutonomousMode"`
	// Redacted reports whether the DMV obfuscated vehicle identification.
	Redacted bool `json:"redacted"`
}

// RelativeSpeedMPH returns the absolute speed difference between the two
// vehicles at collision, or a negative value if either speed is unknown.
func (a Accident) RelativeSpeedMPH() float64 {
	if a.AVSpeedMPH < 0 || a.OtherSpeedMPH < 0 {
		return -1
	}
	diff := a.AVSpeedMPH - a.OtherSpeedMPH
	if diff < 0 {
		diff = -diff
	}
	return diff
}

// MonthlyMileage is a per-vehicle, per-month autonomous-mileage record, the
// unit of the mileage tables every manufacturer must file.
type MonthlyMileage struct {
	Manufacturer Manufacturer `json:"manufacturer"`
	Vehicle      VehicleID    `json:"vehicle"`
	ReportYear   ReportYear   `json:"reportYear"`
	// Month is the first day of the calendar month, UTC.
	Month time.Time `json:"month"`
	// Miles driven in autonomous mode during the month.
	Miles float64 `json:"miles"`
}

// Fleet summarizes one manufacturer's testing program in one report year.
type Fleet struct {
	Manufacturer Manufacturer `json:"manufacturer"`
	ReportYear   ReportYear   `json:"reportYear"`
	// Cars is the number of AV prototypes registered; negative when the
	// report omits it (rendered as a dash in Table I).
	Cars int `json:"cars"`
}

// Corpus is a normalized dataset: the output of Stage II and the input to
// Stage III/IV. A Corpus may span both report years and all manufacturers.
type Corpus struct {
	Fleets         []Fleet          `json:"fleets"`
	Mileage        []MonthlyMileage `json:"mileage"`
	Disengagements []Disengagement  `json:"disengagements"`
	Accidents      []Accident       `json:"accidents"`
}

// TotalMiles sums autonomous miles across the whole corpus.
func (c *Corpus) TotalMiles() float64 {
	var total float64
	for _, m := range c.Mileage {
		total += m.Miles
	}
	return total
}

// MilesBy sums autonomous miles per manufacturer.
func (c *Corpus) MilesBy() map[Manufacturer]float64 {
	out := make(map[Manufacturer]float64)
	for _, m := range c.Mileage {
		out[m.Manufacturer] += m.Miles
	}
	return out
}

// Validate checks internal consistency: events inside the study window,
// non-negative miles, recognized manufacturers. It returns a non-nil error
// describing the first violation found.
func (c *Corpus) Validate() error {
	known := make(map[Manufacturer]bool, 12)
	for _, m := range AllManufacturers() {
		known[m] = true
	}
	for i, m := range c.Mileage {
		if !known[m.Manufacturer] {
			return fmt.Errorf("mileage[%d]: unknown manufacturer %q", i, m.Manufacturer)
		}
		if m.Miles < 0 {
			return fmt.Errorf("mileage[%d]: negative miles %.2f", i, m.Miles)
		}
		if m.Month.Before(StudyStart) || m.Month.After(StudyEnd) {
			return fmt.Errorf("mileage[%d]: month %s outside study window", i, m.Month.Format("2006-01"))
		}
	}
	for i, d := range c.Disengagements {
		if !known[d.Manufacturer] {
			return fmt.Errorf("disengagement[%d]: unknown manufacturer %q", i, d.Manufacturer)
		}
		if d.Time.Before(StudyStart) || d.Time.After(StudyEnd) {
			return fmt.Errorf("disengagement[%d]: time %s outside study window", i, d.Time.Format(time.RFC3339))
		}
	}
	for i, a := range c.Accidents {
		if !known[a.Manufacturer] {
			return fmt.Errorf("accident[%d]: unknown manufacturer %q", i, a.Manufacturer)
		}
		if a.Time.Before(StudyStart) || a.Time.After(StudyEnd) {
			return fmt.Errorf("accident[%d]: time %s outside study window", i, a.Time.Format(time.RFC3339))
		}
	}
	return nil
}

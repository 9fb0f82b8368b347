package core

import (
	"errors"
	"slices"

	"avfda/internal/reliability"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

// FleetRow is one manufacturer-year cell block of Table I.
type FleetRow struct {
	Manufacturer   schema.Manufacturer
	ReportYear     schema.ReportYear
	Cars           int // -1 when the report omits it
	Miles          float64
	Disengagements int
	Accidents      int
}

// FleetSummary reproduces Table I: fleet size, miles, disengagements, and
// accidents per manufacturer and report year, in the paper's row order.
// The rows are the summary's own Years.
func (x *Exposure) FleetSummary() []FleetRow { return x.Years }

// analysisMakers returns the analysis manufacturers
// (schema.AnalysisManufacturers) that reported disengagements, in that
// order.
func (x *Exposure) analysisMakers() []MakerExposure {
	var out []MakerExposure
	for _, m := range schema.AnalysisManufacturers() {
		i := slices.IndexFunc(x.Makers, func(e MakerExposure) bool { return e.Manufacturer == m })
		if i >= 0 && x.Makers[i].Events > 0 {
			out = append(out, x.Makers[i])
		}
	}
	return out
}

// CategoryRow is one row of Table IV: a manufacturer's disengagements by
// root failure category, as percentages.
type CategoryRow struct {
	Manufacturer  schema.Manufacturer
	PlannerPct    float64 // ML/Design: planning & control
	PerceptionPct float64 // ML/Design: perception & recognition
	SystemPct     float64
	UnknownPct    float64
	Total         int
}

// CategoryBreakdown reproduces Table IV over the analysis manufacturers.
func (x *Exposure) CategoryBreakdown() []CategoryRow {
	var out []CategoryRow
	for _, m := range x.analysisMakers() {
		n, c := float64(m.Events), m.Categories
		out = append(out, CategoryRow{
			Manufacturer:  m.Manufacturer,
			PlannerPct:    100 * float64(c.Planner) / n,
			PerceptionPct: 100 * float64(c.Perception) / n,
			SystemPct:     100 * float64(c.System) / n,
			UnknownPct:    100 * float64(c.Unknown) / n,
			Total:         m.Events,
		})
	}
	return out
}

// CategoryShares summarizes the corpus-wide category mix (the paper's
// headline: perception ~44%, planner ~20%, system ~33.6%, ML total 64%).
type CategoryShares struct {
	Perception, Planner, System, Unknown float64
	MLDesign                             float64
}

// OverallCategoryShares computes the corpus-wide fractions over every
// disengagement, canonical manufacturer or not.
func (x *Exposure) OverallCategoryShares() CategoryShares {
	c := x.Categories
	n := float64(c.Planner + c.Perception + c.System + c.Unknown)
	if n == 0 {
		return CategoryShares{}
	}
	return CategoryShares{
		Perception: float64(c.Perception) / n,
		Planner:    float64(c.Planner) / n,
		System:     float64(c.System) / n,
		Unknown:    float64(c.Unknown) / n,
		MLDesign:   float64(c.Planner+c.Perception) / n,
	}
}

// ModalityRow is one row of Table V.
type ModalityRow struct {
	Manufacturer schema.Manufacturer
	AutomaticPct float64
	ManualPct    float64
	PlannedPct   float64
	Total        int
}

// ModalityBreakdown reproduces Table V over the analysis manufacturers.
func (x *Exposure) ModalityBreakdown() []ModalityRow {
	var out []ModalityRow
	for _, m := range x.analysisMakers() {
		n, c := float64(m.Events), m.Modalities
		out = append(out, ModalityRow{
			Manufacturer: m.Manufacturer,
			AutomaticPct: 100 * float64(c.Automatic) / n,
			ManualPct:    100 * float64(c.Manual) / n,
			PlannedPct:   100 * float64(c.Planned) / n,
			Total:        m.Events,
		})
	}
	return out
}

// AccidentRow is one row of Table VI.
type AccidentRow struct {
	Manufacturer schema.Manufacturer
	Accidents    int
	FractionPct  float64
	// DPA is disengagements per accident; negative when the manufacturer
	// reported no disengagements (Uber).
	DPA float64
}

// AccidentSummary reproduces Table VI.
func (x *Exposure) AccidentSummary() []AccidentRow {
	var out []AccidentRow
	for _, m := range x.Makers {
		if m.Accidents == 0 {
			continue
		}
		row := AccidentRow{
			Manufacturer: m.Manufacturer,
			Accidents:    m.Accidents,
			FractionPct:  100 * float64(m.Accidents) / float64(x.Accidents),
			DPA:          -1,
		}
		if m.Events > 0 {
			dpa, err := reliability.DPA(m.Events, m.Accidents)
			if err == nil {
				row.DPA = dpa
			}
		}
		out = append(out, row)
	}
	return out
}

// ReliabilityRow is one row of Table VII.
type ReliabilityRow struct {
	Manufacturer schema.Manufacturer
	MedianDPM    float64
	// MedianAPM is computed as MedianDPM/DPA when the manufacturer has
	// accidents; negative otherwise (dash in the paper).
	MedianAPM float64
	// RelToHuman is MedianAPM / human APM; negative when APM is absent.
	RelToHuman float64
	// EstimateConfidence is the Kalra-Paddock confidence in the APM
	// estimate (the paper reports Waymo and GM Cruise at > 90%); negative
	// when APM is absent.
	EstimateConfidence float64
}

// ReliabilityVsHuman reproduces Table VII: median per-car DPM, APM via
// DPM/DPA, and the ratio to the human-driver accident rate.
func (x *Exposure) ReliabilityVsHuman() ([]ReliabilityRow, error) {
	medians := x.medianDPMPerCar()
	dpaBy := make(map[schema.Manufacturer]float64)
	for _, r := range x.AccidentSummary() {
		dpaBy[r.Manufacturer] = r.DPA
	}
	var out []ReliabilityRow
	for _, mk := range x.analysisMakers() {
		m := mk.Manufacturer
		med, ok := medians[m]
		if !ok {
			continue
		}
		row := ReliabilityRow{
			Manufacturer:       m,
			MedianDPM:          med,
			MedianAPM:          -1,
			RelToHuman:         -1,
			EstimateConfidence: -1,
		}
		if dpa, ok := dpaBy[m]; ok && dpa > 0 {
			apm, err := reliability.APMFromDPM(med, dpa)
			if err != nil {
				return nil, err
			}
			row.MedianAPM = apm
			rel, err := reliability.RelativeToHuman(apm)
			if err != nil {
				return nil, err
			}
			row.RelToHuman = rel
			conf, err := reliability.EstimateConfidence(mk.Accidents, 2)
			if err != nil {
				return nil, err
			}
			row.EstimateConfidence = conf
		}
		out = append(out, row)
	}
	return out, nil
}

// medianDPMPerCar computes each manufacturer's median per-car DPM.
func (x *Exposure) medianDPMPerCar() map[schema.Manufacturer]float64 {
	byMfr := x.dpmByMaker()
	out := make(map[schema.Manufacturer]float64, len(byMfr))
	for m, dpms := range byMfr {
		med, err := stats.Median(dpms)
		if err != nil {
			continue
		}
		out[m] = med
	}
	return out
}

// CrossDomainRow is one row of Table VIII.
type CrossDomainRow struct {
	Manufacturer    schema.Manufacturer
	APMi            float64
	VsAirline       float64
	VsSurgicalRobot float64
}

// CrossDomainTable reproduces Table VIII from the Table VII APM column.
func (x *Exposure) CrossDomainTable() ([]CrossDomainRow, error) {
	rel, err := x.ReliabilityVsHuman()
	if err != nil {
		return nil, err
	}
	var out []CrossDomainRow
	for _, r := range rel {
		if r.MedianAPM < 0 {
			continue
		}
		cd, err := reliability.CompareCrossDomain(r.MedianAPM)
		if err != nil {
			return nil, err
		}
		out = append(out, CrossDomainRow{
			Manufacturer:    r.Manufacturer,
			APMi:            cd.APMi,
			VsAirline:       cd.VsAirline,
			VsSurgicalRobot: cd.VsSurgicalRobot,
		})
	}
	return out, nil
}

// ReliabilityMetric is one manufacturer's reliability summary as the
// serving layer reports it: fleet exposure plus the paper's DPM/DPA/APM
// chain (Tables VI-VII). Fields that the data cannot support (no
// accidents, no per-car mileage) are negative, matching this package's
// convention for the paper's dashes.
type ReliabilityMetric struct {
	Manufacturer string  `json:"manufacturer"`
	Miles        float64 `json:"miles"`
	Events       int     `json:"disengagements"`
	Accidents    int     `json:"accidents"`
	// DPM is the fleet-level disengagements-per-mile rate (Events/Miles);
	// negative when no miles were reported.
	DPM float64 `json:"dpm"`
	// MedianDPM is the Table VII median per-car DPM; negative when no
	// vehicle-attributed mileage exists.
	MedianDPM float64 `json:"medianDPM"`
	// DPA is disengagements per accident (Table VI); negative without
	// accidents or without disengagements.
	DPA float64 `json:"dpa"`
	// MedianAPM is the Table VII accidents-per-mile estimate
	// (MedianDPM/DPA); negative when either input is absent.
	MedianAPM float64 `json:"medianAPM"`
	// RelToHuman is MedianAPM relative to the human-driver accident rate;
	// negative when MedianAPM is absent.
	RelToHuman float64 `json:"relToHuman"`
}

// ReliabilityResponse is the metrics/reliability payload: one
// ReliabilityMetric per manufacturer.
type ReliabilityResponse struct {
	Manufacturers []ReliabilityMetric `json:"manufacturers"`
}

// Reliability computes the reliability metrics of every manufacturer
// present in the study, in the paper's canonical order, from the study's
// exposure summary.
func Reliability(x *Exposure) ([]ReliabilityMetric, error) {
	if x == nil {
		return nil, errors.New("core: nil exposure")
	}
	dpaBy := make(map[schema.Manufacturer]float64)
	for _, r := range x.AccidentSummary() {
		dpaBy[r.Manufacturer] = r.DPA
	}
	rel, err := x.ReliabilityVsHuman()
	if err != nil {
		return nil, err
	}
	relBy := make(map[schema.Manufacturer]ReliabilityRow, len(rel))
	for _, r := range rel {
		relBy[r.Manufacturer] = r
	}
	var out []ReliabilityMetric
	for _, m := range x.Makers {
		row := ReliabilityMetric{
			Manufacturer: string(m.Manufacturer),
			Miles:        m.Miles,
			Events:       m.Events,
			Accidents:    m.Accidents,
			DPM:          -1,
			MedianDPM:    -1,
			DPA:          -1,
			MedianAPM:    -1,
			RelToHuman:   -1,
		}
		if row.Miles > 0 {
			row.DPM = float64(row.Events) / row.Miles
		}
		if dpa, ok := dpaBy[m.Manufacturer]; ok {
			row.DPA = dpa
		}
		if r, ok := relBy[m.Manufacturer]; ok {
			row.MedianDPM = r.MedianDPM
			row.MedianAPM = r.MedianAPM
			row.RelToHuman = r.RelToHuman
		}
		out = append(out, row)
	}
	return out, nil
}

// AggregateRatios reports the §III-C aggregates: average autonomous miles
// per disengagement and disengagements per accident across the corpus.
type AggregateRatios struct {
	MilesPerDisengagement     float64
	DisengagementsPerAccident float64
}

// Aggregates computes the corpus-wide ratios the paper quotes (262 miles
// per disengagement, 127 disengagements per accident).
func (db *DB) Aggregates() AggregateRatios {
	var miles float64
	for _, m := range db.Mileage {
		miles += m.Miles
	}
	var out AggregateRatios
	if n := len(db.Events); n > 0 {
		out.MilesPerDisengagement = miles / float64(n)
		if a := len(db.Accidents); a > 0 {
			out.DisengagementsPerAccident = float64(n) / float64(a)
		}
	}
	return out
}

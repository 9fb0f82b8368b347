package core

import (
	"avfda/internal/calib"
	"avfda/internal/ontology"
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

// FleetSummary reproduces Table I from the database: fleet size, miles,
// disengagements, and accidents per manufacturer and report year, in the
// paper's row order.
func (db *DB) FleetSummary() []FleetRow {
	type key struct {
		m schema.Manufacturer
		y schema.ReportYear
	}
	rows := make(map[key]*FleetRow)
	get := func(m schema.Manufacturer, y schema.ReportYear) *FleetRow {
		k := key{m, y}
		r := rows[k]
		if r == nil {
			r = &FleetRow{Manufacturer: m, ReportYear: y, Cars: -1}
			rows[k] = r
		}
		return r
	}
	for _, f := range db.Fleets {
		get(f.Manufacturer, f.ReportYear).Cars = f.Cars
	}
	for _, m := range db.Mileage {
		get(m.Manufacturer, m.ReportYear).Miles += m.Miles
	}
	for _, e := range db.Events {
		get(e.Manufacturer, e.ReportYear).Disengagements++
	}
	for _, a := range db.Accidents {
		get(a.Manufacturer, a.ReportYear).Accidents++
	}
	var out []FleetRow
	for _, m := range schema.AllManufacturers() {
		for _, y := range schema.ReportYears() {
			if r, ok := rows[key{m, y}]; ok {
				out = append(out, *r)
			}
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
func (db *DB) CategoryBreakdown() []CategoryRow {
	counts := make(map[schema.Manufacturer]*CategoryRow)
	for _, e := range db.Events {
		r := counts[e.Manufacturer]
		if r == nil {
			r = &CategoryRow{Manufacturer: e.Manufacturer}
			counts[e.Manufacturer] = r
		}
		r.Total++
		switch e.Category {
		case ontology.CategoryMLDesign:
			if perception, _ := ontology.MLSubclass(e.Tag); perception {
				r.PerceptionPct++
			} else {
				r.PlannerPct++
			}
		case ontology.CategorySystem:
			r.SystemPct++
		default:
			r.UnknownPct++
		}
	}
	var out []CategoryRow
	for _, m := range db.AnalysisManufacturers() {
		r := counts[m]
		if r == nil || r.Total == 0 {
			continue
		}
		n := float64(r.Total)
		out = append(out, CategoryRow{
			Manufacturer:  m,
			PlannerPct:    100 * r.PlannerPct / n,
			PerceptionPct: 100 * r.PerceptionPct / n,
			SystemPct:     100 * r.SystemPct / n,
			UnknownPct:    100 * r.UnknownPct / n,
			Total:         r.Total,
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

// OverallCategoryShares computes the corpus-wide fractions.
func (db *DB) OverallCategoryShares() CategoryShares {
	var s CategoryShares
	n := float64(len(db.Events))
	if n == 0 {
		return s
	}
	for _, e := range db.Events {
		switch e.Category {
		case ontology.CategoryMLDesign:
			s.MLDesign++
			if perception, _ := ontology.MLSubclass(e.Tag); perception {
				s.Perception++
			} else {
				s.Planner++
			}
		case ontology.CategorySystem:
			s.System++
		default:
			s.Unknown++
		}
	}
	s.Perception /= n
	s.Planner /= n
	s.System /= n
	s.Unknown /= n
	s.MLDesign /= n
	return s
}

// ModalityRow is one row of Table V.
type ModalityRow struct {
	Manufacturer schema.Manufacturer
	AutomaticPct float64
	ManualPct    float64
	PlannedPct   float64
	Total        int
}

// ModalityBreakdown reproduces Table V.
func (db *DB) ModalityBreakdown() []ModalityRow {
	counts := make(map[schema.Manufacturer]*ModalityRow)
	for _, e := range db.Events {
		r := counts[e.Manufacturer]
		if r == nil {
			r = &ModalityRow{Manufacturer: e.Manufacturer}
			counts[e.Manufacturer] = r
		}
		r.Total++
		switch e.Modality {
		case schema.ModalityAutomatic:
			r.AutomaticPct++
		case schema.ModalityManual:
			r.ManualPct++
		case schema.ModalityPlanned:
			r.PlannedPct++
		}
	}
	var out []ModalityRow
	for _, m := range db.AnalysisManufacturers() {
		r := counts[m]
		if r == nil || r.Total == 0 {
			continue
		}
		n := float64(r.Total)
		out = append(out, ModalityRow{
			Manufacturer: m,
			AutomaticPct: 100 * r.AutomaticPct / n,
			ManualPct:    100 * r.ManualPct / n,
			PlannedPct:   100 * r.PlannedPct / n,
			Total:        r.Total,
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
func (db *DB) AccidentSummary() []AccidentRow { return db.Exposure().AccidentSummary() }

// AccidentSummary reproduces Table VI from the exposure summary.
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
func (db *DB) ReliabilityVsHuman() ([]ReliabilityRow, error) {
	return db.Exposure().ReliabilityVsHuman()
}

// ReliabilityVsHuman reproduces Table VII from the exposure summary.
func (x *Exposure) ReliabilityVsHuman() ([]ReliabilityRow, error) {
	medians := x.medianDPMPerCar()
	dpaBy := make(map[schema.Manufacturer]float64)
	for _, r := range x.AccidentSummary() {
		dpaBy[r.Manufacturer] = r.DPA
	}
	makers := make(map[schema.Manufacturer]MakerExposure, len(x.Makers))
	for _, m := range x.Makers {
		makers[m.Manufacturer] = m
	}
	var out []ReliabilityRow
	for _, m := range schema.AnalysisManufacturers() {
		med, ok := medians[m]
		if !ok || makers[m].Events == 0 {
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
			conf, err := reliability.EstimateConfidence(makers[m].Accidents, 2)
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
func (db *DB) CrossDomainTable() ([]CrossDomainRow, error) {
	rel, err := db.ReliabilityVsHuman()
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

// PaperCategoryTargets returns the calib Table IV row for comparison
// rendering; ok is false for manufacturers the paper does not print.
func PaperCategoryTargets(m schema.Manufacturer) (calib.CategoryPct, bool) {
	row, ok := calib.TableIV[m]
	return row, ok
}

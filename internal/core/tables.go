package core

import (
	"errors"

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
	rows := newGroups(func(k key) *FleetRow { return &FleetRow{Manufacturer: k.m, ReportYear: k.y, Cars: -1} })
	for _, f := range db.Fleets {
		rows.get(key{f.Manufacturer, f.ReportYear}).Cars = f.Cars
	}
	for _, m := range db.Mileage {
		rows.get(key{m.Manufacturer, m.ReportYear}).Miles += m.Miles
	}
	for _, e := range db.Events {
		rows.get(key{e.Manufacturer, e.ReportYear}).Disengagements++
	}
	for _, a := range db.Accidents {
		rows.get(key{a.Manufacturer, a.ReportYear}).Accidents++
	}
	var out []FleetRow
	for _, m := range schema.AllManufacturers() {
		for _, y := range schema.ReportYears() {
			if r, ok := rows.m[key{m, y}]; ok {
				out = append(out, *r)
			}
		}
	}
	return out
}

// groups accumulates one *V per key K, created by mk on first use. Rows
// arrive grouped by report, so get keeps the last key beside the map and
// most rows skip the lookup.
type groups[K comparable, V any] struct {
	m     map[K]*V
	mk    func(K) *V
	lastK K
	last  *V
}

func newGroups[K comparable, V any](mk func(K) *V) *groups[K, V] {
	return &groups[K, V]{m: make(map[K]*V), mk: mk}
}

// get returns the accumulator for k.
func (g *groups[K, V]) get(k K) *V {
	if g.last != nil && k == g.lastK {
		return g.last
	}
	v := g.m[k]
	if v == nil {
		v = g.mk(k)
		g.m[k] = v
	}
	g.lastK, g.last = k, v
	return v
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
	counts := newGroups(func(m schema.Manufacturer) *CategoryRow { return &CategoryRow{Manufacturer: m} })
	for _, e := range db.Events {
		r := counts.get(e.Manufacturer)
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
	for _, m := range schema.AnalysisManufacturers() {
		r := counts.m[m]
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
	counts := newGroups(func(m schema.Manufacturer) *ModalityRow { return &ModalityRow{Manufacturer: m} })
	for _, e := range db.Events {
		r := counts.get(e.Manufacturer)
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
	for _, m := range schema.AnalysisManufacturers() {
		r := counts.m[m]
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
	return db.Exposure().CrossDomainTable()
}

// CrossDomainTable reproduces Table VIII from the exposure summary.
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

// PaperCategoryTargets returns the calib Table IV row for comparison
// rendering; ok is false for manufacturers the paper does not print.
func PaperCategoryTargets(m schema.Manufacturer) (calib.CategoryPct, bool) {
	row, ok := calib.TableIV[m]
	return row, ok
}

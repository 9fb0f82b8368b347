package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"avfda/internal/ontology"
	"avfda/internal/reliability"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

// refManufacturers lists the manufacturers present in any table, in the
// paper's canonical order, by a separate pass over each table.
func refManufacturers(db *DB) []schema.Manufacturer {
	present := make(map[schema.Manufacturer]bool)
	for _, f := range db.Fleets {
		present[f.Manufacturer] = true
	}
	for _, m := range db.Mileage {
		present[m.Manufacturer] = true
	}
	for _, e := range db.Events {
		present[e.Manufacturer] = true
	}
	for _, a := range db.Accidents {
		present[a.Manufacturer] = true
	}
	var out []schema.Manufacturer
	for _, m := range schema.AllManufacturers() {
		if present[m] {
			out = append(out, m)
		}
	}
	return out
}

// refFleetSummary is Table I computed by a string-keyed pass over each
// table, as it was before the exposure summary: the last fleet row of a
// manufacturer-year sets its cars.
func refFleetSummary(db *DB) []FleetRow {
	type key struct {
		m schema.Manufacturer
		y schema.ReportYear
	}
	rows := make(map[key]*FleetRow)
	get := func(m schema.Manufacturer, y schema.ReportYear) *FleetRow {
		r := rows[key{m, y}]
		if r == nil {
			r = &FleetRow{Manufacturer: m, ReportYear: y, Cars: -1}
			rows[key{m, y}] = r
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

// refCategoryBreakdown is Table IV computed by a string-keyed pass over
// the events, as it was before the exposure summary.
func refCategoryBreakdown(db *DB) []CategoryRow {
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
	for _, m := range schema.AnalysisManufacturers() {
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

// refOverallShares is the corpus-wide category mix computed over every
// event, as it was before the exposure summary.
func refOverallShares(db *DB) CategoryShares {
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

// refModalityBreakdown is Table V computed by a string-keyed pass over
// the events, as it was before the exposure summary.
func refModalityBreakdown(db *DB) []ModalityRow {
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
	for _, m := range schema.AnalysisManufacturers() {
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

// refAccidentSummary is Table VI computed by separate string-keyed passes
// over the tables, as it was before the exposure summary.
func refAccidentSummary(db *DB) []AccidentRow {
	accBy := make(map[schema.Manufacturer]int)
	for _, a := range db.Accidents {
		accBy[a.Manufacturer]++
	}
	evBy := db.EventsBy()
	var out []AccidentRow
	for _, m := range schema.AllManufacturers() {
		n := accBy[m]
		if n == 0 {
			continue
		}
		row := AccidentRow{Manufacturer: m, Accidents: n, FractionPct: 100 * float64(n) / float64(len(db.Accidents)), DPA: -1}
		if evBy[m] > 0 {
			if dpa, err := reliability.DPA(evBy[m], n); err == nil {
				row.DPA = dpa
			}
		}
		out = append(out, row)
	}
	return out
}

// carStats accumulates one vehicle's exposure and failures.
type carStats struct {
	miles  float64
	events int
}

// refPerCar aggregates miles and events per identifiable vehicle in one
// map, restricted to the months and event times keep accepts (nil keeps
// all): the per-car pass the exposure summary replaced.
func refPerCar(db *DB, keep func(time.Time) bool) map[carKey]*carStats {
	out := make(map[carKey]*carStats)
	get := func(k carKey) *carStats {
		s := out[k]
		if s == nil {
			s = &carStats{}
			out[k] = s
		}
		return s
	}
	for _, m := range db.Mileage {
		if m.Vehicle != "" && (keep == nil || keep(m.Month)) {
			get(carKey{m.Manufacturer, m.Vehicle}).miles += m.Miles
		}
	}
	for _, e := range db.Events {
		if e.Vehicle != "" && (keep == nil || keep(e.Time)) {
			get(carKey{e.Manufacturer, e.Vehicle}).events++
		}
	}
	return out
}

// sortedCarKeys returns the map's keys in manufacturer, vehicle order.
func sortedCarKeys(m map[carKey]*carStats) []carKey {
	keys := make([]carKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].mfr != keys[j].mfr {
			return keys[i].mfr < keys[j].mfr
		}
		return keys[i].car < keys[j].car
	})
	return keys
}

// refMedianDPMPerCar is the per-car median DPM over refPerCar's map.
func refMedianDPMPerCar(db *DB) map[schema.Manufacturer]float64 {
	cars := refPerCar(db, nil)
	byMfr := make(map[schema.Manufacturer][]float64)
	for _, k := range sortedCarKeys(cars) {
		if s := cars[k]; s.miles > 0 {
			byMfr[k.mfr] = append(byMfr[k.mfr], float64(s.events)/s.miles)
		}
	}
	out := make(map[schema.Manufacturer]float64)
	for m, dpms := range byMfr {
		if med, err := stats.Median(dpms); err == nil {
			out[m] = med
		}
	}
	return out
}

// exposureFixtures are databases with the shapes the summary must get
// right: the calibrated study, an empty one, a manufacturer present only in
// the fleet table, fleet-level (vehicle-less) rows, a non-canonical
// manufacturer with events, cars with events but no miles, repeated fleet
// rows for one manufacturer-year, report years outside
// schema.ReportYears, and category, tag and modality codes outside their
// types' defined values.
func exposureFixtures(t *testing.T) map[string]*DB {
	ev := func(m schema.Manufacturer, y schema.ReportYear, c ontology.Category, tag ontology.Tag, mod schema.Modality) Event {
		return Event{Disengagement: schema.Disengagement{Manufacturer: m, Vehicle: "v", ReportYear: y, Modality: mod}, Tag: tag, Category: c}
	}
	return map[string]*DB{
		"calibrated": truthDB(t),
		"empty":      {},
		"edges": {
			Fleets: []schema.Fleet{{Manufacturer: schema.Honda, Cars: 3}, {Manufacturer: schema.Waymo, Cars: 2}},
			Mileage: []schema.MonthlyMileage{
				{Manufacturer: schema.Waymo, Vehicle: "a", Miles: 0.1},
				{Manufacturer: schema.Waymo, Vehicle: "b", Miles: 0.2},
				{Manufacturer: schema.Waymo, Vehicle: "a", Miles: 0.7},
				{Manufacturer: schema.Waymo, Miles: 1e6},
				{Manufacturer: "Acme", Vehicle: "a", Miles: 9},
				{Manufacturer: schema.Bosch, Vehicle: "z", Miles: 3},
			},
			Events: []Event{
				{Disengagement: schema.Disengagement{Manufacturer: schema.Waymo, Vehicle: "a"}},
				{Disengagement: schema.Disengagement{Manufacturer: schema.Waymo}},
				{Disengagement: schema.Disengagement{Manufacturer: schema.Waymo, Vehicle: "c"}},
				{Disengagement: schema.Disengagement{Manufacturer: "Acme", Vehicle: "a"}},
				{Disengagement: schema.Disengagement{Manufacturer: schema.Bosch, Vehicle: "z"}},
			},
			Accidents: []schema.Accident{
				{Manufacturer: schema.Waymo}, {Manufacturer: schema.UberATC}, {Manufacturer: "Acme"}, {Manufacturer: schema.Waymo},
			},
		},
		"repeated-fleets": {
			Fleets: []schema.Fleet{
				{Manufacturer: schema.Waymo, ReportYear: schema.Report2016, Cars: 3},
				{Manufacturer: schema.Nissan, ReportYear: schema.Report2017, Cars: 1},
				{Manufacturer: schema.Waymo, ReportYear: schema.Report2016, Cars: 5},
				{Manufacturer: schema.Waymo, ReportYear: schema.Report2017, Cars: 0},
			},
			Mileage: []schema.MonthlyMileage{{Manufacturer: schema.Waymo, ReportYear: schema.Report2017, Vehicle: "a", Miles: 4}},
		},
		"odd-years": {
			Fleets:  []schema.Fleet{{Manufacturer: schema.Delphi, ReportYear: 7, Cars: 2}},
			Mileage: []schema.MonthlyMileage{{Manufacturer: schema.Delphi, ReportYear: -1, Vehicle: "d", Miles: 8}},
			Events: []Event{
				ev(schema.Delphi, 0, ontology.CategorySystem, ontology.TagSoftware, schema.ModalityManual),
				ev(schema.Delphi, schema.Report2017, ontology.CategorySystem, ontology.TagSoftware, schema.ModalityManual),
			},
			Accidents: []schema.Accident{{Manufacturer: schema.Delphi, ReportYear: 99}},
		},
		"odd-codes": {
			Events: []Event{
				ev(schema.Tesla, schema.Report2016, 0, ontology.TagPlanner, 0),
				ev(schema.Tesla, schema.Report2016, 99, ontology.TagSensor, -3),
				ev(schema.Tesla, schema.Report2016, ontology.CategoryMLDesign, 0, 42),
				ev(schema.Tesla, schema.Report2016, ontology.CategoryMLDesign, 999, schema.ModalityPlanned),
				ev(schema.Tesla, schema.Report2016, ontology.CategoryMLDesign, ontology.TagEnvironment, schema.ModalityAutomatic),
				ev(schema.Tesla, schema.Report2016, ontology.CategorySystem, -7, schema.ModalityManual),
			},
		},
		"non-canonical": {
			Events: []Event{
				ev("Acme", schema.Report2016, ontology.CategoryMLDesign, ontology.TagRecognitionSystem, schema.ModalityAutomatic),
				ev("Acme", schema.Report2016, ontology.CategoryMLDesign, ontology.TagPlanner, schema.ModalityManual),
				ev(schema.Waymo, schema.Report2016, ontology.CategorySystem, ontology.TagSensor, schema.ModalityAutomatic),
				ev("Acme", schema.Report2017, ontology.CategoryUnknownC, ontology.TagUnknownT, schema.ModalityPlanned),
			},
			Accidents: []schema.Accident{{Manufacturer: "Acme", ReportYear: schema.Report2016}},
		},
	}
}

// TestExposureMatchesRowPasses holds the exposure summary, and Tables I
// and IV-VII computed from it, equal to the separate row passes they
// replace: per-manufacturer miles and counts, present manufacturers in the
// paper's order, per-car medians, bit for bit.
func TestExposureMatchesRowPasses(t *testing.T) {
	for name, db := range exposureFixtures(t) {
		t.Run(name, func(t *testing.T) {
			x := db.Exposure()
			miles, events := db.MilesBy(), db.EventsBy()
			accidents := make(map[schema.Manufacturer]int)
			for _, a := range db.Accidents {
				accidents[a.Manufacturer]++
			}
			categories := make(map[schema.Manufacturer]CategoryCounts)
			modalities := make(map[schema.Manufacturer]ModalityCounts)
			for _, e := range db.Events {
				c, m := categories[e.Manufacturer], modalities[e.Manufacturer]
				c.add(e.Category, e.Tag)
				m.add(e.Modality)
				categories[e.Manufacturer], modalities[e.Manufacturer] = c, m
			}
			var makers []MakerExposure
			for _, m := range refManufacturers(db) {
				makers = append(makers, MakerExposure{Manufacturer: m, Miles: miles[m], Events: events[m], Accidents: accidents[m],
					Categories: categories[m], Modalities: modalities[m]})
			}
			if !reflect.DeepEqual(x.Makers, makers) {
				t.Errorf("makers = %+v, want %+v", x.Makers, makers)
			}
			if x.Accidents != len(db.Accidents) {
				t.Errorf("accidents = %d, want %d", x.Accidents, len(db.Accidents))
			}
			in2015 := func(ts time.Time) bool { return ts.Year() == 2015 }
			for _, keep := range []func(time.Time) bool{nil, in2015} {
				cars := refPerCar(db, keep)
				var wantCars []CarExposure
				for _, k := range sortedCarKeys(cars) {
					wantCars = append(wantCars, CarExposure{Manufacturer: k.mfr, Vehicle: k.car, Miles: cars[k].miles, Events: cars[k].events})
				}
				if got := db.exposure(keep).Cars; !reflect.DeepEqual(got, wantCars) {
					t.Errorf("cars (filtered %v) = %+v, want %+v", keep != nil, got, wantCars)
				}
			}
			if got, want := x.medianDPMPerCar(), refMedianDPMPerCar(db); !reflect.DeepEqual(got, want) {
				t.Errorf("median DPM = %v, want %v", got, want)
			}
			if got, want := x.FleetSummary(), refFleetSummary(db); !reflect.DeepEqual(got, want) {
				t.Errorf("Table I = %+v, want %+v", got, want)
			}
			if got, want := x.CategoryBreakdown(), refCategoryBreakdown(db); !reflect.DeepEqual(got, want) {
				t.Errorf("Table IV = %+v, want %+v", got, want)
			}
			if got, want := x.OverallCategoryShares(), refOverallShares(db); !reflect.DeepEqual(got, want) {
				t.Errorf("overall shares = %+v, want %+v", got, want)
			}
			if got, want := x.ModalityBreakdown(), refModalityBreakdown(db); !reflect.DeepEqual(got, want) {
				t.Errorf("Table V = %+v, want %+v", got, want)
			}
			if got, want := x.AccidentSummary(), refAccidentSummary(db); !reflect.DeepEqual(got, want) {
				t.Errorf("Table VI = %+v, want %+v", got, want)
			}
		})
	}
}

// TestExposureTallyMergesKeysOfOneName: keys that resolve to the same name
// (a string table with duplicate entries) count as one manufacturer, one
// manufacturer-year and one vehicle, and the last fleet row fed for the
// name sets its cars.
func TestExposureTallyMergesKeysOfOneName(t *testing.T) {
	names := []string{"Waymo", "a", "Waymo", "a", ""}
	y := schema.Report2016
	tl := NewExposureTally(func(id int) string { return names[id] })
	tl.Fleet(2, y, 4)
	tl.Fleet(0, y, 6)
	tl.Mileage(0, 1, y, 2)
	tl.Mileage(2, 3, y, 3)
	tl.Event(2, 1, y, ontology.CategorySystem, ontology.TagSoftware, schema.ModalityManual)
	tl.Event(0, 4, y, ontology.CategoryMLDesign, ontology.TagPlanner, schema.ModalityManual)
	tl.Accident(2, y)
	x := tl.Exposure()
	wantMakers := []MakerExposure{{Manufacturer: schema.Waymo, Miles: 5, Events: 2, Accidents: 1,
		Categories: CategoryCounts{Planner: 1, System: 1}, Modalities: ModalityCounts{Manual: 2}}}
	if !reflect.DeepEqual(x.Makers, wantMakers) {
		t.Errorf("makers = %+v, want %+v", x.Makers, wantMakers)
	}
	wantYears := []FleetRow{{Manufacturer: schema.Waymo, ReportYear: y, Cars: 6, Miles: 5, Disengagements: 2, Accidents: 1}}
	if !reflect.DeepEqual(x.Years, wantYears) {
		t.Errorf("years = %+v, want %+v", x.Years, wantYears)
	}
	wantCars := []CarExposure{{Manufacturer: schema.Waymo, Vehicle: "a", Miles: 5, Events: 1}}
	if !reflect.DeepEqual(x.Cars, wantCars) {
		t.Errorf("cars = %+v, want %+v", x.Cars, wantCars)
	}
}

package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"avfda/internal/reliability"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

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
// manufacturer, and cars with events but no miles.
func exposureFixtures(t *testing.T) map[string]*DB {
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
	}
}

// TestExposureMatchesRowPasses holds the exposure summary, and Tables VI
// and VII computed from it, equal to the separate row passes they replace:
// per-manufacturer miles and counts, present manufacturers in the paper's
// order, per-car medians, bit for bit.
func TestExposureMatchesRowPasses(t *testing.T) {
	for name, db := range exposureFixtures(t) {
		t.Run(name, func(t *testing.T) {
			x := db.Exposure()
			miles, events := db.MilesBy(), db.EventsBy()
			accidents := make(map[schema.Manufacturer]int)
			for _, a := range db.Accidents {
				accidents[a.Manufacturer]++
			}
			var makers []MakerExposure
			for _, m := range db.Manufacturers() {
				makers = append(makers, MakerExposure{Manufacturer: m, Miles: miles[m], Events: events[m], Accidents: accidents[m]})
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
			if got, want := db.AccidentSummary(), refAccidentSummary(db); !reflect.DeepEqual(got, want) {
				t.Errorf("Table VI = %+v, want %+v", got, want)
			}
		})
	}
}

// TestExposureTallyMergesKeysOfOneName: keys that resolve to the same name
// (a string table with duplicate entries) count as one manufacturer and
// one vehicle.
func TestExposureTallyMergesKeysOfOneName(t *testing.T) {
	names := []string{"Waymo", "a", "Waymo", "a", ""}
	tl := NewExposureTally(func(id int) string { return names[id] })
	tl.Mileage(0, 1, 2)
	tl.Mileage(2, 3, 3)
	tl.Event(2, 1)
	tl.Event(0, 4)
	tl.Accident(2)
	x := tl.Exposure()
	wantMakers := []MakerExposure{{Manufacturer: schema.Waymo, Miles: 5, Events: 2, Accidents: 1}}
	if !reflect.DeepEqual(x.Makers, wantMakers) {
		t.Errorf("makers = %+v, want %+v", x.Makers, wantMakers)
	}
	wantCars := []CarExposure{{Manufacturer: schema.Waymo, Vehicle: "a", Miles: 5, Events: 1}}
	if !reflect.DeepEqual(x.Cars, wantCars) {
		t.Errorf("cars = %+v, want %+v", x.Cars, wantCars)
	}
}

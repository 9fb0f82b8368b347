package core

import (
	"cmp"
	"slices"
	"time"

	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// Exposure is a study's summary: exposure, failure and classification
// counts per manufacturer, per manufacturer and report year, and per
// identifiable vehicle. It is all that Tables I and IV-VIII and the
// reliability metrics need, so a study stored as columns
// (internal/snapshot2) answers them without decoding its tables.
// Reliability is computed from per-vehicle exposure, as in the
// recurrent-events view of Hong et al.
type Exposure struct {
	// Makers has one entry per canonical manufacturer present in any table
	// (fleets included), in the paper's order.
	Makers []MakerExposure
	// Years has one Table I row per canonical manufacturer and report year
	// of schema.ReportYears present in any table, in the paper's row order.
	Years []FleetRow
	// Cars has one entry per vehicle with a non-empty id in the mileage or
	// event table, sorted by manufacturer, then vehicle id.
	Cars []CarExposure
	// Categories counts every disengagement by root-cause class, canonical
	// manufacturer or not.
	Categories CategoryCounts
	// Accidents counts every accident report, canonical manufacturer or not.
	Accidents int
}

// MakerExposure is one manufacturer's exposure, failure and
// classification counts.
type MakerExposure struct {
	Manufacturer schema.Manufacturer
	Miles        float64
	Events       int
	Accidents    int
	Categories   CategoryCounts
	Modalities   ModalityCounts
}

// CategoryCounts counts disengagements by Table IV's root-cause classes:
// ML/Design split by ontology.MLSubclass into planner and perception,
// System, and every other category code as unknown.
type CategoryCounts struct {
	Planner, Perception, System, Unknown int
}

// add counts one disengagement of category cat and tag tag.
func (c *CategoryCounts) add(cat ontology.Category, tag ontology.Tag) {
	switch cat {
	case ontology.CategoryMLDesign:
		if perception, _ := ontology.MLSubclass(tag); perception {
			c.Perception++
		} else {
			c.Planner++
		}
	case ontology.CategorySystem:
		c.System++
	default:
		c.Unknown++
	}
}

// ModalityCounts counts disengagements by Table V's modalities; other
// modality codes are not counted.
type ModalityCounts struct {
	Automatic, Manual, Planned int
}

// add counts one disengagement of modality m.
func (c *ModalityCounts) add(m schema.Modality) {
	switch m {
	case schema.ModalityAutomatic:
		c.Automatic++
	case schema.ModalityManual:
		c.Manual++
	case schema.ModalityPlanned:
		c.Planned++
	}
}

// CarExposure is one vehicle's exposure and disengagement count.
type CarExposure struct {
	Manufacturer schema.Manufacturer
	Vehicle      schema.VehicleID
	Miles        float64
	Events       int
}

// ExposureTally accumulates an Exposure from table rows whose manufacturer
// and vehicle names are keys of type K. A heap database keys by the names
// themselves; a columnar snapshot keys by string-table ids. Rows arrive
// grouped by report, so the last manufacturer-year and vehicle are kept
// beside their maps and most rows skip the lookups: a manufacturer key is
// resolved to its name only when the manufacturer-year changes, and a
// vehicle key only once, by Exposure, where vehicle keys that resolve to
// the same name are merged. Miles add up in the order rows are fed, so
// feeding each table in row order reproduces a row-order sum bit for bit.
type ExposureTally[K comparable] struct {
	name       func(K) string
	makers     map[schema.Manufacturer]*MakerExposure
	years      map[makerYear]*FleetRow
	cars       map[[2]K]*CarExposure
	carKeys    [][2]K
	categories CategoryCounts
	accidents  int

	lastMaker  K
	lastYear   schema.ReportYear
	lastExp    *MakerExposure
	lastRow    *FleetRow
	lastCar    [2]K
	lastCarExp *CarExposure
}

// makerYear keys one manufacturer's report year.
type makerYear struct {
	m schema.Manufacturer
	y schema.ReportYear
}

// NewExposureTally returns an empty tally whose keys name resolves.
func NewExposureTally[K comparable](name func(K) string) *ExposureTally[K] {
	return &ExposureTally[K]{
		name:   name,
		makers: make(map[schema.Manufacturer]*MakerExposure),
		years:  make(map[makerYear]*FleetRow),
		cars:   make(map[[2]K]*CarExposure, 256),
	}
}

// year returns the counts of manufacturer m and of its report year y.
func (t *ExposureTally[K]) year(m K, y schema.ReportYear) (*MakerExposure, *FleetRow) {
	if t.lastRow != nil && m == t.lastMaker && y == t.lastYear {
		return t.lastExp, t.lastRow
	}
	name := schema.Manufacturer(t.name(m))
	e := t.makers[name]
	if e == nil {
		e = &MakerExposure{Manufacturer: name}
		t.makers[name] = e
	}
	r := t.years[makerYear{name, y}]
	if r == nil {
		r = &FleetRow{Manufacturer: name, ReportYear: y, Cars: -1}
		t.years[makerYear{name, y}] = r
	}
	t.lastMaker, t.lastYear, t.lastExp, t.lastRow = m, y, e, r
	return e, r
}

func (t *ExposureTally[K]) car(m, car K) *CarExposure {
	k := [2]K{m, car}
	if t.lastCarExp != nil && k == t.lastCar {
		return t.lastCarExp
	}
	e := t.cars[k]
	if e == nil {
		e = &CarExposure{}
		t.cars[k] = e
		t.carKeys = append(t.carKeys, k)
	}
	t.lastCar, t.lastCarExp = k, e
	return e
}

// Fleet records a fleet row: the manufacturer-year is present and has
// cars vehicles, unless a later fleet row says otherwise.
func (t *ExposureTally[K]) Fleet(m K, y schema.ReportYear, cars int) {
	_, r := t.year(m, y)
	r.Cars = cars
}

// Mileage records one monthly mileage row.
func (t *ExposureTally[K]) Mileage(m, car K, y schema.ReportYear, miles float64) {
	e, r := t.year(m, y)
	e.Miles += miles
	r.Miles += miles
	t.car(m, car).Miles += miles
}

// Event records one disengagement with its classification and modality.
func (t *ExposureTally[K]) Event(m, car K, y schema.ReportYear, cat ontology.Category, tag ontology.Tag, mod schema.Modality) {
	e, r := t.year(m, y)
	e.Events++
	e.Categories.add(cat, tag)
	e.Modalities.add(mod)
	r.Disengagements++
	t.categories.add(cat, tag)
	t.car(m, car).Events++
}

// Accident records one accident report.
func (t *ExposureTally[K]) Accident(m K, y schema.ReportYear) {
	e, r := t.year(m, y)
	e.Accidents++
	r.Accidents++
	t.accidents++
}

// Exposure returns the summary: canonical manufacturers and their report
// years in the paper's order, vehicles with an id sorted.
func (t *ExposureTally[K]) Exposure() *Exposure {
	x := &Exposure{Categories: t.categories, Accidents: t.accidents}
	for _, m := range schema.AllManufacturers() {
		if e := t.makers[m]; e != nil {
			x.Makers = append(x.Makers, *e)
		}
		for _, y := range schema.ReportYears() {
			if r := t.years[makerYear{m, y}]; r != nil {
				x.Years = append(x.Years, *r)
			}
		}
	}

	type carName struct {
		m schema.Manufacturer
		v schema.VehicleID
	}
	slot := make(map[carName]int, len(t.carKeys))
	for _, k := range t.carKeys {
		e, n := t.cars[k], carName{schema.Manufacturer(t.name(k[0])), schema.VehicleID(t.name(k[1]))}
		if n.v == "" {
			continue
		}
		if i, ok := slot[n]; ok {
			x.Cars[i].Miles += e.Miles
			x.Cars[i].Events += e.Events
			continue
		}
		slot[n] = len(x.Cars)
		x.Cars = append(x.Cars, CarExposure{Manufacturer: n.m, Vehicle: n.v, Miles: e.Miles, Events: e.Events})
	}
	slices.SortFunc(x.Cars, func(a, b CarExposure) int {
		return cmp.Or(cmp.Compare(a.Manufacturer, b.Manufacturer), cmp.Compare(a.Vehicle, b.Vehicle))
	})
	return x
}

// Exposure summarizes the database's exposure in one pass over each table.
func (db *DB) Exposure() *Exposure { return db.exposure(nil) }

// exposure is Exposure over the mileage months, events and accidents whose
// time keep accepts (nil keeps every row).
func (db *DB) exposure(keep func(time.Time) bool) *Exposure {
	in := func(ts time.Time) bool { return keep == nil || keep(ts) }
	t := NewExposureTally(func(s string) string { return s })
	for _, f := range db.Fleets {
		t.Fleet(string(f.Manufacturer), f.ReportYear, f.Cars)
	}
	for _, m := range db.Mileage {
		if in(m.Month) {
			t.Mileage(string(m.Manufacturer), string(m.Vehicle), m.ReportYear, m.Miles)
		}
	}
	for _, e := range db.Events {
		if in(e.Time) {
			t.Event(string(e.Manufacturer), string(e.Vehicle), e.ReportYear, e.Category, e.Tag, e.Modality)
		}
	}
	for _, a := range db.Accidents {
		if in(a.Time) {
			t.Accident(string(a.Manufacturer), a.ReportYear)
		}
	}
	return t.Exposure()
}

// dpmByMaker lists each manufacturer's per-car DPMs, over the cars with
// miles, in car order.
func (x *Exposure) dpmByMaker() map[schema.Manufacturer][]float64 {
	out := make(map[schema.Manufacturer][]float64)
	for _, c := range x.Cars {
		if c.Miles > 0 {
			out[c.Manufacturer] = append(out[c.Manufacturer], float64(c.Events)/c.Miles)
		}
	}
	return out
}

package core

import (
	"cmp"
	"slices"
	"time"

	"avfda/internal/schema"
)

// Exposure is a study's exposure and failure counts: miles, disengagements
// and accidents per manufacturer, plus miles and disengagements per
// identifiable vehicle. It is all that Tables VI and VII need, so a study
// stored as columns (internal/snapshot2) answers them without decoding its
// tables. Reliability is computed from per-vehicle exposure, as in the
// recurrent-events view of Hong et al.
type Exposure struct {
	// Makers has one entry per canonical manufacturer present in any table
	// (fleets included), in the paper's order.
	Makers []MakerExposure
	// Cars has one entry per vehicle with a non-empty id in the mileage or
	// event table, sorted by manufacturer, then vehicle id.
	Cars []CarExposure
	// Accidents counts every accident report, canonical manufacturer or not.
	Accidents int
}

// MakerExposure is one manufacturer's exposure and failure counts.
type MakerExposure struct {
	Manufacturer schema.Manufacturer
	Miles        float64
	Events       int
	Accidents    int
}

// CarExposure is one vehicle's exposure and disengagement count.
type CarExposure struct {
	Manufacturer schema.Manufacturer
	Vehicle      schema.VehicleID
	Miles        float64
	Events       int
}

// ExposureTally accumulates an Exposure from table rows whose manufacturer
// and vehicle names are keys of type K, resolved to names only once, by
// Exposure. A heap database keys by the names themselves; a columnar
// snapshot keys by string-table ids. Miles add up per key in the order rows
// are fed, so feeding each table in row order reproduces a row-order sum
// bit for bit. Keys that resolve to the same name are merged at the end.
// Rows arrive grouped by report, so the last key of each kind is kept
// beside its map and most rows skip the lookup.
type ExposureTally[K comparable] struct {
	name      func(K) string
	makers    map[K]*MakerExposure
	makerKeys []K
	cars      map[[2]K]*CarExposure
	carKeys   [][2]K
	accidents int

	lastMaker    K
	lastMakerExp *MakerExposure
	lastCar      [2]K
	lastCarExp   *CarExposure
}

// NewExposureTally returns an empty tally whose keys name resolves.
func NewExposureTally[K comparable](name func(K) string) *ExposureTally[K] {
	return &ExposureTally[K]{name: name, makers: make(map[K]*MakerExposure), cars: make(map[[2]K]*CarExposure, 256)}
}

func (t *ExposureTally[K]) maker(m K) *MakerExposure {
	if t.lastMakerExp != nil && m == t.lastMaker {
		return t.lastMakerExp
	}
	e := t.makers[m]
	if e == nil {
		e = &MakerExposure{}
		t.makers[m] = e
		t.makerKeys = append(t.makerKeys, m)
	}
	t.lastMaker, t.lastMakerExp = m, e
	return e
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

// Fleet records a fleet row: the manufacturer is present.
func (t *ExposureTally[K]) Fleet(m K) { t.maker(m) }

// Mileage records one monthly mileage row.
func (t *ExposureTally[K]) Mileage(m, car K, miles float64) {
	t.maker(m).Miles += miles
	t.car(m, car).Miles += miles
}

// Event records one disengagement.
func (t *ExposureTally[K]) Event(m, car K) {
	t.maker(m).Events++
	t.car(m, car).Events++
}

// Accident records one accident report.
func (t *ExposureTally[K]) Accident(m K) {
	t.maker(m).Accidents++
	t.accidents++
}

// Exposure resolves the keys to names and returns the summary: canonical
// manufacturers in the paper's order, vehicles with an id sorted.
func (t *ExposureTally[K]) Exposure() *Exposure {
	byName := make(map[schema.Manufacturer]*MakerExposure, len(t.makerKeys))
	for _, k := range t.makerKeys {
		e, name := t.makers[k], schema.Manufacturer(t.name(k))
		if acc := byName[name]; acc != nil {
			acc.Miles += e.Miles
			acc.Events += e.Events
			acc.Accidents += e.Accidents
			continue
		}
		acc := *e
		acc.Manufacturer = name
		byName[name] = &acc
	}
	x := &Exposure{Accidents: t.accidents}
	for _, m := range schema.AllManufacturers() {
		if e := byName[m]; e != nil {
			x.Makers = append(x.Makers, *e)
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
		t.Fleet(string(f.Manufacturer))
	}
	for _, m := range db.Mileage {
		if in(m.Month) {
			t.Mileage(string(m.Manufacturer), string(m.Vehicle), m.Miles)
		}
	}
	for _, e := range db.Events {
		if in(e.Time) {
			t.Event(string(e.Manufacturer), string(e.Vehicle))
		}
	}
	for _, a := range db.Accidents {
		if in(a.Time) {
			t.Accident(string(a.Manufacturer))
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

// Package core implements Stage IV of the paper's pipeline: the statistical
// analysis of the consolidated AV failure database. Each function produces
// the data behind one table or figure of the paper's evaluation (DESIGN.md
// §4 maps them); rendering lives in package report and regeneration in the
// benchmark harness.
package core

import (
	"errors"

	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// Event is one disengagement joined with its NLP classification.
type Event struct {
	schema.Disengagement
	Tag      ontology.Tag
	Category ontology.Category
}

// DB is the consolidated failure database: the output of pipeline step 4
// ("consolidated failure data" in the paper's Fig. 1) and the sole input of
// every analysis below.
type DB struct {
	// Fleets, Mileage, and Accidents come straight from the corpus.
	Fleets    []schema.Fleet
	Mileage   []schema.MonthlyMileage
	Accidents []schema.Accident
	// Events joins each disengagement with its fault tag and category.
	Events []Event
}

// BuildWithTags assembles a database from pre-assigned tags (ground truth
// or an alternative classifier), aligned with corpus.Disengagements.
func BuildWithTags(corpus *schema.Corpus, tags []ontology.Tag) (*DB, error) {
	if corpus == nil {
		return nil, errors.New("core: nil corpus")
	}
	if len(tags) != len(corpus.Disengagements) {
		return nil, errors.New("core: tags misaligned with disengagements")
	}
	db := &DB{
		Fleets:    append([]schema.Fleet(nil), corpus.Fleets...),
		Mileage:   append([]schema.MonthlyMileage(nil), corpus.Mileage...),
		Accidents: append([]schema.Accident(nil), corpus.Accidents...),
		Events:    make([]Event, 0, len(corpus.Disengagements)),
	}
	for i, d := range corpus.Disengagements {
		db.Events = append(db.Events, Event{
			Disengagement: d,
			Tag:           tags[i],
			Category:      ontology.CategoryOf(tags[i]),
		})
	}
	return db, nil
}

// AnalysisManufacturers returns the present manufacturers that have enough
// disengagements for statistical analysis (the paper drops Uber, BMW, Ford,
// and Honda).
func (db *DB) AnalysisManufacturers() []schema.Manufacturer {
	counts := make(map[schema.Manufacturer]int)
	for _, e := range db.Events {
		counts[e.Manufacturer]++
	}
	var out []schema.Manufacturer
	for _, m := range schema.AnalysisManufacturers() {
		if counts[m] > 0 {
			out = append(out, m)
		}
	}
	return out
}

// MilesBy returns total autonomous miles per manufacturer.
func (db *DB) MilesBy() map[schema.Manufacturer]float64 {
	out := make(map[schema.Manufacturer]float64)
	for _, m := range db.Mileage {
		out[m.Manufacturer] += m.Miles
	}
	return out
}

// EventsBy returns disengagement counts per manufacturer.
func (db *DB) EventsBy() map[schema.Manufacturer]int {
	out := make(map[schema.Manufacturer]int)
	for _, e := range db.Events {
		out[e.Manufacturer]++
	}
	return out
}

// carKey identifies one vehicle across the database.
type carKey struct {
	mfr schema.Manufacturer
	car schema.VehicleID
}

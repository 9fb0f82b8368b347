package query

import (
	"math"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// metricsDB builds a tiny hand-assembled failure database: Waymo with one
// vehicle, 100 miles, 2 disengagements, 1 accident; Honda (excluded from
// the paper's statistical analysis) with events but no per-car medians.
func metricsDB() *core.DB {
	month := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	ev := func(m schema.Manufacturer, v schema.VehicleID) core.Event {
		return core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: m, Vehicle: v, ReportYear: schema.Report2016,
				Time: month.AddDate(0, 0, 10), Cause: "software hang",
				Modality: schema.ModalityManual,
			},
			Tag:      ontology.TagSoftware,
			Category: ontology.CategoryOf(ontology.TagSoftware),
		}
	}
	return &core.DB{
		Mileage: []schema.MonthlyMileage{
			{Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016, Month: month, Miles: 100},
			{Manufacturer: schema.Honda, Vehicle: "H1", ReportYear: schema.Report2016, Month: month, Miles: 50},
		},
		Events: []core.Event{ev(schema.Waymo, "W1"), ev(schema.Waymo, "W1"), ev(schema.Honda, "H1")},
		Accidents: []schema.Accident{
			{Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016,
				Time: month.AddDate(0, 0, 20), AVSpeedMPH: 5, OtherSpeedMPH: 10},
		},
	}
}

func TestReliabilityMetrics(t *testing.T) {
	db := metricsDB()
	rows, err := Reliability(db.Exposure())
	if err != nil {
		t.Fatal(err)
	}
	byMfr := make(map[string]ReliabilityMetric, len(rows))
	for _, r := range rows {
		byMfr[r.Manufacturer] = r
	}

	w, ok := byMfr["Waymo"]
	if !ok {
		t.Fatal("no Waymo row")
	}
	if w.Events != 2 || w.Accidents != 1 || w.Miles != 100 {
		t.Errorf("Waymo exposure = %+v", w)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !approx(w.DPM, 0.02) {
		t.Errorf("Waymo DPM = %g, want 0.02", w.DPM)
	}
	if !approx(w.MedianDPM, 0.02) {
		t.Errorf("Waymo MedianDPM = %g, want 0.02", w.MedianDPM)
	}
	if !approx(w.DPA, 2) {
		t.Errorf("Waymo DPA = %g, want 2", w.DPA)
	}
	if !approx(w.MedianAPM, 0.01) {
		t.Errorf("Waymo MedianAPM = %g, want 0.01", w.MedianAPM)
	}
	if w.RelToHuman <= 0 {
		t.Errorf("Waymo RelToHuman = %g, want > 0", w.RelToHuman)
	}

	// Honda is outside the paper's analysis set: exposure is reported but
	// the Table VII chain stays absent (-1).
	h, ok := byMfr["Honda"]
	if !ok {
		t.Fatal("no Honda row")
	}
	if h.Events != 1 || !approx(h.DPM, 0.02) {
		t.Errorf("Honda exposure = %+v", h)
	}
	if h.MedianDPM != -1 || h.MedianAPM != -1 || h.DPA != -1 {
		t.Errorf("Honda analysis fields = %+v, want -1s", h)
	}

	if _, err := Reliability(nil); err == nil {
		t.Error("Reliability(nil): want error")
	}
}

// TestEngineOverDB exercises the New constructor end-to-end on the
// hand-assembled database.
func TestEngineOverDB(t *testing.T) {
	eng, err := New(metricsDB())
	if err != nil {
		t.Fatal(err)
	}
	n, err := eng.Count(Filter{Manufacturer: "Waymo"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("Waymo events = %d, want 2", n)
	}
	rows, err := eng.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("reliability rows = %d, want 2", len(rows))
	}
}

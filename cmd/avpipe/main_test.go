package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/synth"
)

// smallDB is a one-event, one-accident database whose mileage has a
// manufacturer without miles and one with two months.
func smallDB(t *testing.T) *core.DB {
	t.Helper()
	corpus := &schema.Corpus{
		Mileage: []schema.MonthlyMileage{
			{Manufacturer: schema.Nissan, Vehicle: "n1", ReportYear: schema.Report2016, Month: schema.StudyStart, Miles: 120},
			{Manufacturer: schema.Bosch, Vehicle: "b1", ReportYear: schema.Report2016, Month: schema.StudyStart, Miles: 0},
			{Manufacturer: schema.Nissan, Vehicle: "n1", ReportYear: schema.Report2016, Month: schema.StudyStart.AddDate(0, 1, 0), Miles: 30.5},
		},
		Disengagements: []schema.Disengagement{{
			Manufacturer: schema.Nissan, Vehicle: "n1",
			ReportYear: schema.Report2016, Time: schema.StudyStart.Add(7200e9),
			Cause: "Software module froze", Modality: schema.ModalityManual,
			ReactionSeconds: 0.8,
		}},
		Accidents: []schema.Accident{{
			Manufacturer: schema.Nissan, ReportYear: schema.Report2016,
			Time:       schema.StudyStart.Add(3600e9),
			Location:   "El Camino Real & Clark Av, Mountain View CA",
			Narrative:  `AV was rear-ended; the other driver said "sorry"`,
			AVSpeedMPH: 2.5, OtherSpeedMPH: -1, InAutonomousMode: true, Redacted: true,
		}},
	}
	db, err := core.BuildWithTags(corpus, []ontology.Tag{ontology.TagSoftware})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestWriteCSVs pins the bytes of all four CSV exports of smallDB.
func TestWriteCSVs(t *testing.T) {
	db := smallDB(t)
	eng, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeCSVs(eng, db, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ name, body string }{
		{"events.csv", "manufacturer,vehicle,reportYear,time,cause,tag,category,modality,road,weather,reactionSeconds\n" +
			"Nissan,n1,2015-2016,2014-09-01T02:00:00Z,Software module froze,Software,System,Manual,unknown,unknown,0.8\n"},
		{"accidents.csv", "manufacturer,vehicle,reportYear,time,location,narrative,avSpeedMPH,otherSpeedMPH,inAutonomousMode,redacted\n" +
			`Nissan,,2015-2016,2014-09-01T01:00:00Z,"El Camino Real & Clark Av, Mountain View CA","AV was rear-ended; the other driver said ""sorry""",2.5,-1,1,1` + "\n"},
		{"mileage.csv", "manufacturer,vehicle,reportYear,month,miles\n" +
			"Nissan,n1,2015-2016,2014-09-01T00:00:00Z,120\n" +
			"Bosch,b1,2015-2016,2014-09-01T00:00:00Z,0\n" +
			"Nissan,n1,2015-2016,2014-10-01T00:00:00Z,30.5\n"},
		{"dpm.csv", "manufacturer,totalMiles,events,dpm\n" +
			"Bosch,0,0,0\n" +
			"Nissan,150.5,1,0.006644518272425249\n"},
	} {
		blob, err := os.ReadFile(filepath.Join(dir, want.name))
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if string(blob) != want.body {
			t.Errorf("%s =\n%s\nwant\n%s", want.name, blob, want.body)
		}
	}
	// Empty dir means no-op, no error.
	if err := writeCSVs(eng, db, ""); err != nil {
		t.Errorf("empty dir: %v", err)
	}
}

// truthDB is the ground-truth database of a generated corpus.
func truthDB(t *testing.T) *core.DB {
	t.Helper()
	tr, err := synth.Generate(synth.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.BuildWithTags(&tr.Corpus, tr.Tags)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// readCSV parses an export into its records, header excluded.
func readCSV(t *testing.T, blob []byte) [][]string {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(blob)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("CSV has no header")
	}
	return recs[1:]
}

// TestWriteMileageCSV: one record per mileage row, whose miles sum to the
// database's.
func TestWriteMileageCSV(t *testing.T) {
	db := truthDB(t)
	var buf bytes.Buffer
	if err := writeMileageCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, buf.Bytes())
	if len(rows) != len(db.Mileage) {
		t.Fatalf("CSV rows %d, mileage %d", len(rows), len(db.Mileage))
	}
	var sum, direct float64
	for i, r := range rows {
		miles, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += miles
		direct += db.Mileage[i].Miles
	}
	if math.Abs(sum-direct) > 1e-6 {
		t.Errorf("CSV miles %.2f vs direct %.2f", sum, direct)
	}
}

// TestWriteDPMCSV: the DPM export agrees with the database's direct
// per-manufacturer counts and miles, sorted by manufacturer name.
func TestWriteDPMCSV(t *testing.T) {
	db := truthDB(t)
	var buf bytes.Buffer
	if err := writeDPMCSV(&buf, db); err != nil {
		t.Fatal(err)
	}
	rows := readCSV(t, buf.Bytes())
	milesBy, eventsBy := db.MilesBy(), db.EventsBy()
	if len(rows) != len(milesBy) {
		t.Fatalf("CSV rows %d, manufacturers with mileage %d", len(rows), len(milesBy))
	}
	for i, r := range rows {
		mfr := schema.Manufacturer(r[0])
		if i > 0 && r[0] < rows[i-1][0] {
			t.Fatal("dpm.csv not sorted by manufacturer")
		}
		if milesBy[mfr] <= 0 {
			continue
		}
		dpm, err := strconv.ParseFloat(r[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(eventsBy[mfr]) / milesBy[mfr]; math.Abs(dpm-want) > 1e-12 {
			t.Errorf("%s: CSV DPM %.6g vs direct %.6g", mfr, dpm, want)
		}
	}
}

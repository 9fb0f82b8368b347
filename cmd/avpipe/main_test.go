package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

func smallDB(t *testing.T) *core.DB {
	t.Helper()
	corpus := &schema.Corpus{
		Mileage: []schema.MonthlyMileage{{
			Manufacturer: schema.Nissan, Vehicle: "n1",
			ReportYear: schema.Report2016, Month: schema.StudyStart, Miles: 120,
		}},
		Disengagements: []schema.Disengagement{{
			Manufacturer: schema.Nissan, Vehicle: "n1",
			ReportYear: schema.Report2016, Time: schema.StudyStart.Add(7200e9),
			Cause: "Software module froze", Modality: schema.ModalityManual,
			ReactionSeconds: 0.8,
		}},
	}
	db, err := core.BuildWithTags(corpus, []ontology.Tag{ontology.TagSoftware})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWriteCSVs(t *testing.T) {
	db := smallDB(t)
	dir := t.TempDir()
	if err := writeCSVs(db, dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"events.csv", "mileage.csv", "dpm.csv"} {
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(string(blob), "Nissan") {
			t.Errorf("%s missing data rows", name)
		}
	}
	// Empty dir means no-op, no error.
	if err := writeCSVs(db, ""); err != nil {
		t.Errorf("empty dir: %v", err)
	}
}

package query

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/schema"
	"avfda/internal/synth"
)

// synthEngine builds an engine over the ground-truth database of a
// generated corpus, accidents included.
func synthEngine(t *testing.T) (*Engine, *core.DB) {
	t.Helper()
	tr, err := synth.Generate(synth.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.BuildWithTags(&tr.Corpus, tr.Tags)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return eng, db
}

// readCSV parses a CSV export into its header and records.
func readCSV(t *testing.T, blob []byte) (header []string, rows [][]string) {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(blob)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("CSV has no header")
	}
	return recs[0], recs[1:]
}

// failWriter fails every write.
type failWriter struct{}

var errWrite = errors.New("disk full")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestWriteEventsCSV: the events export has one 11-column record per
// event, its per-manufacturer counts agree with the database's, an empty
// study writes the header alone, and malformed filters and failing
// writers are errors.
func TestWriteEventsCSV(t *testing.T) {
	eng, db := synthEngine(t)
	var buf bytes.Buffer
	if err := eng.WriteEventsCSV(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100000 {
		t.Errorf("CSV suspiciously small: %d bytes", buf.Len())
	}
	header, rows := readCSV(t, buf.Bytes())
	if !slices.Equal(header, eventsCSVHeader) || len(header) != 11 {
		t.Errorf("header = %v", header)
	}
	if len(rows) != len(db.Events) {
		t.Fatalf("CSV rows %d, events %d", len(rows), len(db.Events))
	}
	counts := make(map[schema.Manufacturer]int)
	for _, r := range rows {
		counts[schema.Manufacturer(r[0])]++
	}
	direct := db.EventsBy()
	for m, n := range direct {
		if counts[m] != n {
			t.Errorf("%s: CSV %d vs direct %d", m, counts[m], n)
		}
	}

	// Sub-second times are written in whole seconds, with every other
	// field in its display form.
	rdb := randomDB(rand.New(rand.NewSource(5)), 300)
	reng, err := New(rdb)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := reng.WriteEventsCSV(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	_, rows = readCSV(t, buf.Bytes())
	for i, e := range rdb.Events {
		want := []string{string(e.Manufacturer), string(e.Vehicle), e.ReportYear.String(),
			e.Time.Format(time.RFC3339), e.Cause, e.Tag.String(), e.Category.String(),
			e.Modality.String(), e.Road.String(), e.Weather.String(),
			strconv.FormatFloat(e.ReactionSeconds, 'g', -1, 64)}
		if !slices.Equal(rows[i], want) {
			t.Fatalf("row %d = %q, want %q", i, rows[i], want)
		}
	}

	empty, err := New(&core.DB{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := empty.WriteEventsCSV(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(eventsCSVHeader, ",") + "\n"; buf.String() != want {
		t.Errorf("empty study CSV = %q, want %q", buf.String(), want)
	}

	buf.Reset()
	var me *MonthError
	if err := eng.WriteEventsCSV(&buf, Filter{From: "bogus"}); !errors.As(err, &me) || buf.Len() != 0 {
		t.Errorf("malformed filter: err %v, %d bytes written; want *MonthError and none", err, buf.Len())
	}
	if err := eng.WriteEventsCSV(failWriter{}, Filter{}); !errors.Is(err, errWrite) {
		t.Errorf("failing writer: err = %v, want %v", err, errWrite)
	}
}

// TestWriteAccidentsCSV: the accidents export has one 10-column record per
// report whose manufacturer and 0/1 flags agree with the database row by
// row, and an empty study writes the header alone.
func TestWriteAccidentsCSV(t *testing.T) {
	eng, db := synthEngine(t)
	var buf bytes.Buffer
	if err := eng.WriteAccidentsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows := readCSV(t, buf.Bytes())
	if !slices.Equal(header, accidentsCSVHeader) || len(header) != 10 {
		t.Errorf("header = %v", header)
	}
	if len(rows) != len(db.Accidents) || len(rows) == 0 {
		t.Fatalf("CSV rows %d, accidents %d", len(rows), len(db.Accidents))
	}
	flag := map[bool]string{false: "0", true: "1"}
	for i, a := range db.Accidents {
		r := rows[i]
		if r[0] != string(a.Manufacturer) {
			t.Fatalf("row %d: manufacturer %q vs %q", i, r[0], a.Manufacturer)
		}
		if r[8] != flag[a.InAutonomousMode] || r[9] != flag[a.Redacted] {
			t.Fatalf("row %d: flags %s,%s, want %s,%s", i, r[8], r[9], flag[a.InAutonomousMode], flag[a.Redacted])
		}
	}

	empty, err := New(&core.DB{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := empty.WriteAccidentsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := strings.Join(accidentsCSVHeader, ",") + "\n"; buf.String() != want {
		t.Errorf("empty study CSV = %q, want %q", buf.String(), want)
	}
	if err := eng.WriteAccidentsCSV(failWriter{}); !errors.Is(err, errWrite) {
		t.Errorf("failing writer: err = %v, want %v", err, errWrite)
	}
}

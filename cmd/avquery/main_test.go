package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/frame"
	"avfda/internal/ontology"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
)

func queryFixture(t *testing.T) *query.Engine {
	t.Helper()
	f := frame.New()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(f.AddStrings("manufacturer", []string{"Waymo", "Waymo", "Bosch"}))
	must(f.AddStrings("tag", []string{"Software", "Sensor", "Software"}))
	must(f.AddStrings("category", []string{"System", "System", "System"}))
	must(f.AddStrings("road", []string{"highway", "city street", "highway"}))
	must(f.AddStrings("modality", []string{"Manual", "Automatic", "Planned"}))
	must(f.AddStrings("cause", []string{"a", "b", "c"}))
	must(f.AddTimes("time", []time.Time{
		time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2015, 6, 10, 0, 0, 0, 0, time.UTC),
		time.Date(2016, 1, 10, 0, 0, 0, 0, time.UTC),
	}))
	eng, err := query.NewFromFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFilterByField(t *testing.T) {
	eng := queryFixture(t)
	n, err := eng.Count(query.Filter{Manufacturer: "waymo"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("mfr filter rows = %d", n)
	}
	n, err = eng.Count(query.Filter{Tag: "Software", Modality: "planned"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("combined filter rows = %d", n)
	}
}

func TestFilterByMonthRange(t *testing.T) {
	eng := queryFixture(t)
	n, err := eng.Count(query.Filter{From: "2015-04", To: "2015-12"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("range rows = %d", n)
	}
	// Inclusive end month.
	n, err = eng.Count(query.Filter{From: "2015-03", To: "2015-03"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("single-month rows = %d", n)
	}
}

func TestMalformedMonthIsTypedError(t *testing.T) {
	eng := queryFixture(t)
	for _, f := range []query.Filter{{From: "bogus"}, {To: "2015-13-01"}} {
		_, err := eng.Count(f)
		if err == nil {
			t.Fatalf("filter %+v: want error", f)
		}
		var me *query.MonthError
		if !errors.As(err, &me) {
			t.Fatalf("filter %+v: error %v is not a *query.MonthError", f, err)
		}
		if me.Field != "from" && me.Field != "to" {
			t.Errorf("MonthError.Field = %q", me.Field)
		}
		if me.Value == "" {
			t.Errorf("MonthError.Value is empty, want the rejected input")
		}
	}
}

func TestFilterEmptyMatchesAll(t *testing.T) {
	eng := queryFixture(t)
	n, err := eng.Count(query.Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if n != eng.Len() {
		t.Errorf("no-filter rows = %d", n)
	}
}

// TestGoldenListOutput pins the text listing format: the refactor onto
// internal/query must not change what existing flag combinations print.
func TestGoldenListOutput(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	if err := printRows(&sb, eng, query.Filter{}, 20); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"2015-03-10  Waymo          Software                 a\n" +
		"2015-06-10  Waymo          Sensor                   b\n" +
		"2016-01-10  Bosch          Software                 c\n"
	if sb.String() != want {
		t.Errorf("listing output:\n%q\nwant:\n%q", sb.String(), want)
	}

	sb.Reset()
	if err := printRows(&sb, eng, query.Filter{}, 2); err != nil {
		t.Fatal(err)
	}
	want = "" +
		"2015-03-10  Waymo          Software                 a\n" +
		"2015-06-10  Waymo          Sensor                   b\n" +
		"... and 1 more (raise -limit or use -csv)\n"
	if sb.String() != want {
		t.Errorf("truncated listing:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestGoldenListTruncatesLongCauses(t *testing.T) {
	f := frame.New()
	long := strings.Repeat("x", 70)
	if err := f.AddStrings("manufacturer", []string{"Waymo"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddStrings("tag", []string{"Software"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddStrings("cause", []string{long}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddTimes("time", []time.Time{time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	eng, err := query.NewFromFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := printRows(&sb, eng, query.Filter{}, 20); err != nil {
		t.Fatal(err)
	}
	want := "2015-03-10  Waymo          Software                 " +
		strings.Repeat("x", 57) + "...\n"
	if sb.String() != want {
		t.Errorf("long-cause listing:\n%q\nwant:\n%q", sb.String(), want)
	}
}

// TestGoldenGroupOutput pins the group-count format and its descending
// count / ascending key ordering.
func TestGoldenGroupOutput(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	if err := printGroups(&sb, eng, query.Filter{}, "tag"); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"     2  Software\n" +
		"     1  Sensor\n"
	if sb.String() != want {
		t.Errorf("group output:\n%q\nwant:\n%q", sb.String(), want)
	}

	sb.Reset()
	if err := printGroups(&sb, eng, query.Filter{}, "month"); err != nil {
		t.Fatal(err)
	}
	want = "" +
		"     1  2015-03\n" +
		"     1  2015-06\n" +
		"     1  2016-01\n"
	if sb.String() != want {
		t.Errorf("month group output:\n%q\nwant:\n%q", sb.String(), want)
	}
}

func TestGroupUnknownColumn(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	err := printGroups(&sb, eng, query.Filter{}, "bogus")
	var ce *query.ColumnError
	if !errors.As(err, &ce) {
		t.Fatalf("unknown column error = %v, want *query.ColumnError", err)
	}
	if ce.Column != "bogus" {
		t.Errorf("ColumnError.Column = %q, want %q", ce.Column, "bogus")
	}
}

func TestJSONOutputs(t *testing.T) {
	eng := queryFixture(t)
	var sb strings.Builder
	if err := writeEventsJSON(&sb, eng, query.Filter{Manufacturer: "Waymo"}, 1); err != nil {
		t.Fatal(err)
	}
	var page query.EventPage
	if err := json.Unmarshal([]byte(sb.String()), &page); err != nil {
		t.Fatalf("decode events JSON: %v", err)
	}
	if page.Total != 2 || len(page.Events) != 1 {
		t.Errorf("events JSON total=%d len=%d, want 2, 1", page.Total, len(page.Events))
	}
	if page.Events[0].Cause != "a" {
		t.Errorf("first event cause = %q", page.Events[0].Cause)
	}

	sb.Reset()
	if err := writeGroupsJSON(&sb, eng, query.Filter{}, "manufacturer"); err != nil {
		t.Fatal(err)
	}
	var groups groupsJSON
	if err := json.Unmarshal([]byte(sb.String()), &groups); err != nil {
		t.Fatalf("decode groups JSON: %v", err)
	}
	if groups.By != "manufacturer" || len(groups.Groups) != 2 {
		t.Errorf("groups JSON = %+v", groups)
	}
	if groups.Groups[0].Key != "Waymo" || groups.Groups[0].Count != 2 {
		t.Errorf("top group = %+v", groups.Groups[0])
	}
}

// snapshotFixture hand-assembles a three-event study for the snapshot
// loading tests; building a real study would cost a full pipeline run.
func snapshotFixture() *core.DB {
	ev := func(m schema.Manufacturer, tag ontology.Tag) core.Event {
		return core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: m, Vehicle: "V1", ReportYear: schema.Report2016,
				Time:     time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC),
				Modality: schema.ModalityManual,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		}
	}
	return &core.DB{Events: []core.Event{
		ev(schema.Waymo, ontology.TagSoftware),
		ev(schema.Waymo, ontology.TagSensor),
		ev(schema.Bosch, ontology.TagSoftware),
	}}
}

// TestLoadEngineMapsSnapshot: with a valid v2 snapshot in -snapshot-dir,
// the engine is served from the mapped file and sees every event.
func TestLoadEngineMapsSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := snapshotFixture()
	if _, err := snapshot2.WriteSeed(dir, 7, db); err != nil {
		t.Fatal(err)
	}
	eng, err := loadEngine(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != len(db.Events) {
		t.Errorf("engine events = %d, want %d", eng.Len(), len(db.Events))
	}
	n, err := eng.Count(query.Filter{Manufacturer: string(schema.Waymo)})
	if err != nil || n != 2 {
		t.Errorf("Waymo count = %d, %v; want 2", n, err)
	}
}

// TestLoadEngineCorruptSnapshotIsTypedError: a bit-flipped v2 snapshot is
// a hard error carrying snapshot2's typed checksum error — never a silent
// pipeline rebuild, which would have returned an engine instead.
func TestLoadEngineCorruptSnapshotIsTypedError(t *testing.T) {
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 7, snapshotFixture()); err != nil {
		t.Fatal(err)
	}
	path := snapshot2.Path(dir, 7)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := loadEngine(dir, 7)
	var ce *snapshot2.ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("loadEngine over a corrupt snapshot: err = %v, want *snapshot2.ChecksumError", err)
	}
	if eng != nil {
		t.Error("loadEngine returned an engine alongside the error")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
)

func queryFixture(t *testing.T) *query.Engine {
	t.Helper()
	ev := func(m schema.Manufacturer, tag ontology.Tag, road schema.RoadType, mod schema.Modality, cause string, month int, year int) core.Event {
		return core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: m, ReportYear: schema.Report2016, Cause: cause, Road: road, Modality: mod,
				Time: time.Date(year, time.Month(month), 10, 0, 0, 0, 0, time.UTC),
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		}
	}
	eng, err := query.New(&core.DB{Events: []core.Event{
		ev(schema.Waymo, ontology.TagSoftware, schema.RoadHighway, schema.ModalityManual, "a", 3, 2015),
		ev(schema.Waymo, ontology.TagSensor, schema.RoadCityStreet, schema.ModalityAutomatic, "b", 6, 2015),
		ev(schema.Bosch, ontology.TagSoftware, schema.RoadHighway, schema.ModalityPlanned, "c", 1, 2016),
	}})
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

// TestCheckLimit pins the -limit check that runs before the study build:
// a cap below 1 used to list every row and then report them again as
// "... and N more".
func TestCheckLimit(t *testing.T) {
	for _, tc := range []struct {
		limit int
		want  string // "" means accepted
	}{
		{1, ""},
		{20, ""},
		{0, "bad -limit 0: want a positive integer"},
		{-5, "bad -limit -5: want a positive integer"},
	} {
		err := checkLimit(tc.limit)
		if tc.want == "" {
			if err != nil {
				t.Errorf("checkLimit(%d) = %v, want nil", tc.limit, err)
			}
			continue
		}
		//lint:allow errsubstr this test pins the message avquery prints for a rejected -limit
		if err == nil || err.Error() != tc.want {
			t.Errorf("checkLimit(%d) = %v, want %q", tc.limit, err, tc.want)
		}
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
	long := strings.Repeat("x", 70)
	eng, err := query.New(&core.DB{Events: []core.Event{{
		Disengagement: schema.Disengagement{
			Manufacturer: schema.Waymo, Cause: long,
			Time: time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC),
		},
		Tag: ontology.TagSoftware,
	}}})
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
	eng, release, err := loadEngine(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if eng.Len() != len(db.Events) {
		t.Errorf("engine events = %d, want %d", eng.Len(), len(db.Events))
	}
	n, err := eng.Count(query.Filter{Manufacturer: string(schema.Waymo)})
	if err != nil || n != 2 {
		t.Errorf("Waymo count = %d, %v; want 2", n, err)
	}
}

// TestLoadEngineReleaseUnmaps: the release loadEngine returns for a
// mapped snapshot unmaps the file, so avquery does not leave it to exit or
// the View's finalizer.
func TestLoadEngineReleaseUnmaps(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("needs /proc/self/maps to count mappings")
	}
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 7, snapshotFixture()); err != nil {
		t.Fatal(err)
	}
	mappings := func() int {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Count(string(maps), dir+string(os.PathSeparator))
	}
	eng, release, err := loadEngine(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := mappings(); n == 0 {
		t.Fatal("snapshot is not mapped after loadEngine")
	}
	var csv bytes.Buffer
	if err := eng.WriteEventsCSV(&csv, query.Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if n := mappings(); n != 0 {
		t.Errorf("snapshot still mapped %d time(s) after release", n)
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
	eng, _, err := loadEngine(dir, 7)
	var ce *snapshot2.ChecksumError
	if !errors.As(err, &ce) {
		t.Fatalf("loadEngine over a corrupt snapshot: err = %v, want *snapshot2.ChecksumError", err)
	}
	if eng != nil {
		t.Error("loadEngine returned an engine alongside the error")
	}
}

// TestCheckFilter pins the checks run before the study build: an accident
// listing refuses the predicates accident reports cannot answer and the
// flags that act on disengagements, and every listing refuses a malformed
// month.
func TestCheckFilter(t *testing.T) {
	for _, tc := range []struct {
		f         query.Filter
		accidents bool
		by        string
		csv       bool
		want      string // "" means accepted
	}{
		{query.Filter{Tag: "Software", Road: "highway"}, false, "tag", true, ""},
		{query.Filter{Manufacturer: "Waymo", From: "2015-01"}, true, "", false, ""},
		{query.Filter{From: "bogus"}, false, "", false, `bad -from value "bogus": want YYYY-MM`},
		{query.Filter{To: "bogus"}, true, "", false, `bad -to value "bogus": want YYYY-MM`},
		{query.Filter{Tag: "Software"}, true, "", false, "accidents cannot be filtered by tag: accident reports carry no tag"},
		{query.Filter{Category: "System"}, true, "", false, "accidents cannot be filtered by category: accident reports carry no category"},
		{query.Filter{Road: "highway"}, true, "", false, "accidents cannot be filtered by road: accident reports carry no road"},
		{query.Filter{Weather: "sunny"}, true, "", false, "accidents cannot be filtered by weather: accident reports carry no weather"},
		{query.Filter{Modality: "manual"}, true, "", false, "accidents cannot be filtered by modality: accident reports carry no modality"},
		{query.Filter{}, true, "tag", false, "-by does not apply to -accidents"},
		{query.Filter{}, true, "", true, "-csv does not apply to -accidents"},
	} {
		err := checkFilter(tc.f, tc.accidents, tc.by, tc.csv)
		if tc.want == "" {
			if err != nil {
				t.Errorf("checkFilter(%+v, accidents=%v) = %v, want nil", tc.f, tc.accidents, err)
			}
			continue
		}
		//lint:allow errsubstr this test pins the message avquery prints for a rejected flag
		if err == nil || err.Error() != tc.want {
			t.Errorf("checkFilter(%+v, accidents=%v, by=%q, csv=%v) = %v, want %q", tc.f, tc.accidents, tc.by, tc.csv, err, tc.want)
		}
	}
}

// TestCSVFreshMatchesSnapshot: -csv writes the same bytes for a freshly
// built study and for the same study mapped from -snapshot-dir.
func TestCSVFreshMatchesSnapshot(t *testing.T) {
	const seed = 3
	fresh, releaseFresh, err := loadEngine("", seed)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseFresh()
	dir := t.TempDir()
	if _, err := fresh.WriteSeed(dir, seed); err != nil {
		t.Fatal(err)
	}
	mapped, releaseMapped, err := loadEngine(dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseMapped()
	for _, f := range []query.Filter{
		{},
		{Manufacturer: "Waymo", Tag: "Planner"},
		{Category: "ML/Design", Weather: "raining", From: "2015-01", To: "2016-06"},
		{Manufacturer: "DeLorean"},
	} {
		var want, got bytes.Buffer
		if err := fresh.WriteEventsCSV(&want, f); err != nil {
			t.Fatal(err)
		}
		if err := mapped.WriteEventsCSV(&got, f); err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("filter %+v: CSV from the snapshot differs from the fresh build's (%d vs %d bytes)", f, got.Len(), want.Len())
		}
	}
}

package query

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// fixtureEngine builds a small five-row engine with known values.
func fixtureEngine(t *testing.T) *Engine {
	t.Helper()
	ev := func(m schema.Manufacturer, tag ontology.Tag, road schema.RoadType, w schema.Weather,
		mod schema.Modality, cause string, ts time.Time) core.Event {
		return core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer: m, ReportYear: schema.Report2016, Time: ts, Cause: cause,
				Modality: mod, Road: road, Weather: w,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		}
	}
	day := func(y, m, d int) time.Time { return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC) }
	eng, err := New(&core.DB{Events: []core.Event{
		ev(schema.Waymo, ontology.TagSoftware, schema.RoadHighway, schema.WeatherSunny, schema.ModalityManual, "a", day(2015, 3, 10)),
		ev(schema.Waymo, ontology.TagSensor, schema.RoadCityStreet, schema.WeatherRaining, schema.ModalityAutomatic, "b", day(2015, 6, 10)),
		ev(schema.Bosch, ontology.TagSoftware, schema.RoadHighway, schema.WeatherUnknown, schema.ModalityPlanned, "c", day(2016, 1, 10)),
		ev(schema.Delphi, ontology.TagPlanner, schema.RoadUnknown, schema.WeatherSunny, schema.ModalityManual, "d", day(2016, 5, 2)),
		ev(schema.Waymo, ontology.TagSoftware, schema.RoadHighway, schema.WeatherFoggy, schema.ModalityManual, "e", day(2016, 11, 30)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPredicates(t *testing.T) {
	eng := fixtureEngine(t)
	tests := []struct {
		name   string
		filter Filter
		want   []int
	}{
		{"empty matches all", Filter{}, []int{0, 1, 2, 3, 4}},
		{"manufacturer", Filter{Manufacturer: "Waymo"}, []int{0, 1, 4}},
		{"manufacturer case-insensitive", Filter{Manufacturer: "wAYmo"}, []int{0, 1, 4}},
		{"tag", Filter{Tag: "Software"}, []int{0, 2, 4}},
		{"category", Filter{Category: "ml/design"}, []int{3}},
		{"road", Filter{Road: "highway"}, []int{0, 2, 4}},
		{"weather", Filter{Weather: "sunny"}, []int{0, 3}},
		{"modality", Filter{Modality: "manual"}, []int{0, 3, 4}},
		{"from only", Filter{From: "2016-01"}, []int{2, 3, 4}},
		{"to only", Filter{To: "2015-12"}, []int{0, 1}},
		{"from==to single month", Filter{From: "2015-06", To: "2015-06"}, []int{1}},
		{"inverted range", Filter{From: "2016-06", To: "2015-01"}, []int{}},
		{"conjunction", Filter{Manufacturer: "Waymo", Tag: "Software", Road: "highway"}, []int{0, 4}},
		{"conjunction with range", Filter{Tag: "Software", From: "2016-01"}, []int{2, 4}},
		{"unknown manufacturer", Filter{Manufacturer: "DeLorean"}, []int{}},
		{"unknown tag", Filter{Tag: "Flux Capacitor"}, []int{}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := eng.Select(tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Select(%+v) = %v, want %v", tc.filter, got, tc.want)
			}
			scan, err := eng.SelectScan(tc.filter)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scan, tc.want) {
				t.Errorf("SelectScan(%+v) = %v, want %v", tc.filter, scan, tc.want)
			}
		})
	}
}

func TestMonthErrors(t *testing.T) {
	eng := fixtureEngine(t)
	for _, tc := range []struct {
		filter Filter
		field  string
	}{
		{Filter{From: "nope"}, "from"},
		{Filter{To: "2015"}, "to"},
		{Filter{From: "2015-01", To: "12-2015"}, "to"},
	} {
		_, err := eng.Select(tc.filter)
		var me *MonthError
		if !errors.As(err, &me) {
			t.Fatalf("Select(%+v) error = %v, want *MonthError", tc.filter, err)
		}
		if me.Field != tc.field {
			t.Errorf("MonthError.Field = %q, want %q", me.Field, tc.field)
		}
		if me.Unwrap() == nil {
			t.Error("MonthError.Unwrap() = nil")
		}
		if tc.filter.Validate() == nil {
			t.Errorf("Validate(%+v) = nil, want error", tc.filter)
		}
	}
	if err := (Filter{From: "2015-01", To: "2016-11"}).Validate(); err != nil {
		t.Errorf("valid range: %v", err)
	}
}

// randomEngine builds an engine over a deterministic pseudo-random corpus
// for the equivalence property tests and benchmarks.
func randomEngine(t testing.TB, rng *rand.Rand, n int) *Engine {
	t.Helper()
	eng, err := New(randomDB(rng, n))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestIndexScanEquivalence is the property test behind the plan: for
// random corpora and random filters, Select (column codes) must return
// exactly what SelectScan (string comparisons) returns. The option lists
// carry values with U+017F (ſ), which EqualFold folds to s and
// strings.ToLower leaves alone.
func TestIndexScanEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := randomEngine(t, rng, 500)
	maybe := func(opts []string) string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return opts[rng.Intn(len(opts))]
	}
	months := []string{"", "2014-09", "2015-03", "2015-12", "2016-06", "2016-11"}
	for trial := 0; trial < 200; trial++ {
		f := Filter{
			Manufacturer: maybe([]string{"Waymo", "bosch", "DELPHI", "Tesla", "Nissan", "Boſch"}),
			Tag:          maybe([]string{"Software", "sensor", "Planner", "No Such Tag", "ſoftware", "SOFTWARE"}),
			Category:     maybe([]string{"System", "ml/design", "Unknown", "ſyſtem"}),
			Road:         maybe([]string{"highway", "rural", "parking lot"}),
			Weather:      maybe([]string{"sunny", "raining"}),
			Modality:     maybe([]string{"Manual", "automatic"}),
			From:         months[rng.Intn(len(months))],
			To:           months[rng.Intn(len(months))],
		}
		planned, err := eng.Select(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := eng.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planned, scanned) {
			t.Fatalf("trial %d: filter %+v: planned %v != scanned %v", trial, f, planned, scanned)
		}
	}
}

func TestPagination(t *testing.T) {
	eng := fixtureEngine(t)
	tests := []struct {
		name       string
		page       Page
		wantLen    int
		wantFirst  string // first event's cause, "" when empty
		wantTotal  int
		wantOffset int
	}{
		{"all with zero limit", Page{}, 5, "a", 5, 0},
		{"first page", Page{Limit: 2}, 2, "a", 5, 0},
		{"middle page", Page{Offset: 2, Limit: 2}, 2, "c", 5, 2},
		{"last partial page", Page{Offset: 4, Limit: 2}, 1, "e", 5, 4},
		{"offset at total", Page{Offset: 5, Limit: 2}, 0, "", 5, 5},
		{"offset past total", Page{Offset: 99, Limit: 2}, 0, "", 5, 99},
		{"negative offset clamps", Page{Offset: -3, Limit: 2}, 2, "a", 5, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			page, err := eng.Events(Filter{}, tc.page)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != tc.wantTotal || page.Offset != tc.wantOffset {
				t.Errorf("page meta = total %d offset %d, want %d, %d",
					page.Total, page.Offset, tc.wantTotal, tc.wantOffset)
			}
			if page.Events == nil {
				t.Fatal("Events slice is nil; want non-nil for JSON []")
			}
			if len(page.Events) != tc.wantLen {
				t.Fatalf("len(events) = %d, want %d", len(page.Events), tc.wantLen)
			}
			if tc.wantLen > 0 && page.Events[0].Cause != tc.wantFirst {
				t.Errorf("first cause = %q, want %q", page.Events[0].Cause, tc.wantFirst)
			}
		})
	}

	t.Run("empty filter result", func(t *testing.T) {
		page, err := eng.Events(Filter{Manufacturer: "DeLorean"}, Page{Limit: 10})
		if err != nil {
			t.Fatal(err)
		}
		if page.Total != 0 || len(page.Events) != 0 || page.Events == nil {
			t.Errorf("empty result page = %+v", page)
		}
	})
}

func TestGroupCount(t *testing.T) {
	eng := fixtureEngine(t)
	got, err := eng.GroupCount(Filter{}, "tag")
	if err != nil {
		t.Fatal(err)
	}
	want := []GroupCount{{"Software", 3}, {"Planner", 1}, {"Sensor", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupCount(tag) = %v, want %v", got, want)
	}

	got, err = eng.GroupCount(Filter{Manufacturer: "Waymo"}, "month")
	if err != nil {
		t.Fatal(err)
	}
	want = []GroupCount{{"2015-03", 1}, {"2015-06", 1}, {"2016-11", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupCount(month) = %v, want %v", got, want)
	}

	// Columns no filter names group from the View's accessors too.
	got, err = eng.GroupCount(Filter{Tag: "Software"}, "cause")
	if err != nil {
		t.Fatal(err)
	}
	want = []GroupCount{{"a", 1}, {"c", 1}, {"e", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("GroupCount(cause) = %v, want %v", got, want)
	}

	if _, err := eng.GroupCount(Filter{}, "nope"); err == nil {
		t.Error("unknown column: want error")
	}
}

func TestNewNilInputs(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil): want error")
	}
}

// BenchmarkSelect measures a selective manufacturer+tag query on a 20k-row
// corpus through Select, which compares column codes, and through the
// SelectScan reference, which renders and compares strings on every row.
func BenchmarkSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	eng := randomEngine(b, rng, 20000)
	f := Filter{Manufacturer: "Waymo", Tag: "Sensor"}
	for _, bc := range []struct {
		name string
		run  func(Filter) ([]int, error)
	}{{"codes", eng.Select}, {"scan", eng.SelectScan}} {
		b.Run(bc.name, func(b *testing.B) {
			for range b.N {
				if _, err := bc.run(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// accidentsEngine builds a small database-backed engine with two accident
// reports for the Accidents listing tests.
func accidentsEngine(t *testing.T) *Engine {
	t.Helper()
	month := func(m int) time.Time { return time.Date(2015, time.Month(m), 4, 0, 0, 0, 0, time.UTC) }
	db := &core.DB{
		Events: []core.Event{
			{Disengagement: schema.Disengagement{
				Manufacturer: schema.Waymo, ReportYear: schema.Report2016,
				Time: month(3), Cause: "software hang",
			}, Tag: ontology.TagSoftware, Category: ontology.CategoryOf(ontology.TagSoftware)},
		},
		Accidents: []schema.Accident{
			{Manufacturer: schema.Waymo, Vehicle: "W1", ReportYear: schema.Report2016,
				Time: month(7), Location: "El Camino Real", AVSpeedMPH: 5, OtherSpeedMPH: 10,
				InAutonomousMode: true},
			{Manufacturer: schema.Bosch, Vehicle: "B1", ReportYear: schema.Report2016,
				Time: month(9), Location: "First St", AVSpeedMPH: 2},
		},
	}
	eng, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAccidents(t *testing.T) {
	eng := accidentsEngine(t)
	tests := []struct {
		name          string
		filter        Filter
		page          Page
		wantTotal     int
		wantLocations []string
	}{
		{"all", Filter{}, Page{}, 2, []string{"El Camino Real", "First St"}},
		{"manufacturer case-insensitive", Filter{Manufacturer: "bosch"}, Page{}, 1, []string{"First St"}},
		{"month range", Filter{From: "2015-01", To: "2015-08"}, Page{}, 1, []string{"El Camino Real"}},
		{"range excludes all", Filter{From: "2016-01"}, Page{}, 0, nil},
		{"paginated", Filter{}, Page{Limit: 1}, 2, []string{"El Camino Real"}},
		{"second page", Filter{}, Page{Offset: 1, Limit: 1}, 2, []string{"First St"}},
		{"offset past total", Filter{}, Page{Offset: 9, Limit: 1}, 2, nil},
		{"negative offset clamps", Filter{}, Page{Offset: -2, Limit: 1}, 2, []string{"El Camino Real"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			page, err := eng.Accidents(tc.filter, tc.page)
			if err != nil {
				t.Fatal(err)
			}
			if page.Total != tc.wantTotal {
				t.Errorf("total = %d, want %d", page.Total, tc.wantTotal)
			}
			if page.Accidents == nil {
				t.Fatal("Accidents slice is nil; want non-nil for JSON []")
			}
			var locs []string
			for _, a := range page.Accidents {
				locs = append(locs, a.Location)
			}
			if !reflect.DeepEqual(locs, tc.wantLocations) {
				t.Errorf("locations = %v, want %v", locs, tc.wantLocations)
			}
		})
	}
}

func TestAccidentsErrors(t *testing.T) {
	eng := accidentsEngine(t)
	_, err := eng.Accidents(Filter{From: "bogus"}, Page{})
	var me *MonthError
	if !errors.As(err, &me) {
		t.Errorf("malformed month error = %v, want *MonthError", err)
	}
}

// TestValidateAccidents pins the one check that decides which predicates
// an accident listing accepts: manufacturer and months only, every other
// set predicate a *PredicateError naming its parameter.
func TestValidateAccidents(t *testing.T) {
	for _, f := range []Filter{{}, {Manufacturer: "Waymo", From: "2015-01", To: "2015-06"}} {
		if err := f.ValidateAccidents(); err != nil {
			t.Errorf("ValidateAccidents(%+v) = %v, want nil", f, err)
		}
	}
	for _, tc := range []struct {
		f     Filter
		field string
	}{
		{Filter{Tag: "Software"}, "tag"},
		{Filter{Category: "System"}, "category"},
		{Filter{Road: "highway"}, "road"},
		{Filter{Weather: "sunny"}, "weather"},
		{Filter{Modality: "manual", Manufacturer: "Waymo"}, "modality"},
	} {
		var pe *PredicateError
		if err := tc.f.ValidateAccidents(); !errors.As(err, &pe) || pe.Field != tc.field {
			t.Errorf("ValidateAccidents(%+v) = %v, want a *PredicateError for %s", tc.f, err, tc.field)
		}
	}
	var me *MonthError
	if err := (Filter{To: "2015-13"}).ValidateAccidents(); !errors.As(err, &me) {
		t.Errorf("bad month: %v, want *MonthError", err)
	}
}

// TestColumnErrorTyped pins the unknown-column contract: the error is a
// *ColumnError reachable with errors.As (transports classify on the type,
// not the message), and the message still names the column for humans.
func TestColumnErrorTyped(t *testing.T) {
	eng := fixtureEngine(t)
	_, err := eng.GroupCount(Filter{}, "bogus")
	var ce *ColumnError
	if !errors.As(err, &ce) {
		t.Fatalf("GroupCount error = %v, want *ColumnError", err)
	}
	if ce.Column != "bogus" {
		t.Errorf("ColumnError.Column = %q", ce.Column)
	}
	if ce.Unwrap() == nil {
		t.Error("ColumnError.Unwrap() = nil")
	}
	//lint:allow errsubstr this test pins the human-readable rendering of ColumnError.Error itself
	if !strings.Contains(err.Error(), `group by "bogus"`) {
		t.Errorf("error %q does not name the column", err)
	}
	// Wrapping must not break classification.
	wrapped := fmt.Errorf("engine: %w", err)
	if !errors.As(wrapped, &ce) {
		t.Error("wrapped ColumnError not found by errors.As")
	}
}

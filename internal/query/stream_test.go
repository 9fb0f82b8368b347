package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// refEvents is the select-then-slice Events loop the streamed one
// replaced, run over SelectScan ids: the reference page for a filter.
func refEvents(e *Engine, f Filter, p Page) (EventPage, error) {
	ids, err := e.SelectScan(f)
	if err != nil {
		return EventPage{}, err
	}
	if p.Offset < 0 {
		p.Offset = 0
	}
	page := EventPage{Total: len(ids), Offset: p.Offset, Limit: p.Limit}
	start := p.Offset
	if start > len(ids) {
		start = len(ids)
	}
	end := len(ids)
	if p.Limit > 0 && start+p.Limit < end {
		end = start + p.Limit
	}
	page.Events = make([]Event, 0, end-start)
	for _, i := range ids[start:end] {
		page.Events = append(page.Events, e.event(i))
	}
	return page, nil
}

// refGroupCount is the select-then-count GroupCount loop the streamed one
// replaced, run over SelectScan ids, with every key taken from db itself:
// the event's field in its display form, its time in RFC 3339 with
// nanoseconds, its reaction time in %g form, or its "YYYY-MM" for month.
// An unknown column is an error.
func refGroupCount(e *Engine, db *core.DB, f Filter, by string) ([]GroupCount, error) {
	ids, err := e.SelectScan(f)
	if err != nil {
		return nil, err
	}
	key := map[string]func(ev *core.Event) string{
		"manufacturer":    func(ev *core.Event) string { return string(ev.Manufacturer) },
		"tag":             func(ev *core.Event) string { return ev.Tag.String() },
		"category":        func(ev *core.Event) string { return ev.Category.String() },
		"road":            func(ev *core.Event) string { return ev.Road.String() },
		"weather":         func(ev *core.Event) string { return ev.Weather.String() },
		"modality":        func(ev *core.Event) string { return ev.Modality.String() },
		"month":           func(ev *core.Event) string { return ev.Time.Format("2006-01") },
		"vehicle":         func(ev *core.Event) string { return string(ev.Vehicle) },
		"reportYear":      func(ev *core.Event) string { return ev.ReportYear.String() },
		"cause":           func(ev *core.Event) string { return ev.Cause },
		"time":            func(ev *core.Event) string { return ev.Time.Format(time.RFC3339Nano) },
		"reactionSeconds": func(ev *core.Event) string { return fmt.Sprintf("%g", ev.ReactionSeconds) },
	}[by]
	if key == nil {
		return nil, fmt.Errorf("no column %q", by)
	}
	counts := make(map[string]int)
	for _, i := range ids {
		counts[key(&db.Events[i])]++
	}
	return sortedGroups(counts), nil
}

// randomDB generates a deterministic pseudo-random failure database.
func randomDB(rng *rand.Rand, n int) *core.DB {
	mfrs := []schema.Manufacturer{"Waymo", "Bosch", "Delphi", "GMCruise", ""}
	tags := ontology.AllTags()
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	db := &core.DB{}
	for i := 0; i < n; i++ {
		tag := tags[rng.Intn(len(tags))]
		db.Events = append(db.Events, core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer:    mfrs[rng.Intn(len(mfrs))],
				Vehicle:         schema.VehicleID(fmt.Sprintf("V%02d", rng.Intn(8))),
				ReportYear:      schema.ReportYear(1 + rng.Intn(2)),
				Time:            base.AddDate(0, rng.Intn(27), rng.Intn(28)).Add(time.Duration(rng.Int63n(int64(time.Hour)))),
				Cause:           fmt.Sprintf("cause %d", rng.Intn(40)),
				Modality:        schema.Modality(rng.Intn(4)),
				Road:            schema.RoadType(rng.Intn(8)),
				Weather:         schema.Weather(rng.Intn(5)),
				ReactionSeconds: rng.Float64() * 3,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		})
	}
	return db
}

// marshal renders v as the serving layer would, so equality is checked at
// the byte boundary clients see.
func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamedAnswersMatchReference holds the plan-driven Events, Count,
// and GroupCount byte-identical to the select-then-slice references on a
// large and a tiny engine, over explicit filter shapes that random draws
// almost never produce, random filters, and pages at the window's edges.
func TestStreamedAnswersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type study struct {
		name string
		db   *core.DB
		eng  *Engine
	}
	var engines []study
	for _, n := range []int{400, 7} {
		db := randomDB(rng, n)
		eng, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, study{fmt.Sprintf("random-%d", n), db, eng})
	}

	filters := []Filter{
		{},
		{From: "2015-03", To: "2016-06"},
		{From: "2015-12"},
		{To: "2015-03"},
		{Road: "highway"},
		{Weather: "sunny"},
		{Modality: "automatic"},
		{Manufacturer: "waymo", Road: "rural"},
		{Tag: "Software", Weather: "rain", From: "2015-01"},
		{Category: "ML/Design", Modality: "manual", To: "2016-01"},
		{Manufacturer: "Nissan"},
	}
	maybe := func(opts ...string) string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return opts[rng.Intn(len(opts))]
	}
	for i := 0; i < 60; i++ {
		filters = append(filters, Filter{
			Manufacturer: maybe("Waymo", "bosch", "DELPHI", "Nissan"),
			Tag:          maybe("Software", "sensor", "Planner", "Recognition System"),
			Category:     maybe("System", "ml/design"),
			Road:         maybe("highway", "rural", "city street"),
			Weather:      maybe("sunny", "rain", "raining"),
			Modality:     maybe("Manual", "automatic"),
			From:         maybe("2014-09", "2015-03", "2015-12"),
			To:           maybe("2015-06", "2016-06", "2016-11"),
		})
	}
	groupBys := GroupColumns()

	for _, tc := range engines {
		for _, f := range filters {
			scan, err := tc.eng.SelectScan(f)
			if err != nil {
				t.Fatal(err)
			}
			n, err := tc.eng.Count(f)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(scan) {
				t.Fatalf("%s %+v: Count %d, scan %d", tc.name, f, n, len(scan))
			}
			sel, err := tc.eng.Select(f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sel, scan) {
				t.Fatalf("%s %+v: Select %v, scan %v", tc.name, f, sel, scan)
			}

			for _, p := range []Page{
				{},
				{Limit: 7},
				{Offset: 3, Limit: 5},
				{Offset: -4, Limit: 6},
				{Offset: len(scan), Limit: 7},
				{Offset: len(scan) - 1, Limit: 7},
				{Offset: len(scan) + 1},
				{Offset: math.MaxInt, Limit: 1000},
				{Offset: math.MaxInt},
			} {
				got, err := tc.eng.Events(f, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := refEvents(tc.eng, f, p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(t, got), marshal(t, want)) {
					t.Fatalf("%s %+v page %+v: Events diverge from reference\n got %s\nwant %s",
						tc.name, f, p, marshal(t, got), marshal(t, want))
				}
			}

			for _, by := range groupBys {
				got, gotErr := tc.eng.GroupCount(f, by)
				want, wantErr := refGroupCount(tc.eng, tc.db, f, by)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s %+v by %s: error %v, reference %v", tc.name, f, by, gotErr, wantErr)
				}
				if !bytes.Equal(marshal(t, got), marshal(t, want)) {
					t.Fatalf("%s %+v by %s: GroupCount diverges from reference", tc.name, f, by)
				}
			}
		}
	}
}

// BenchmarkEngineQueries runs one sub-benchmark per default-mix filter
// shape on a 5,000-row corpus (about one study). It is a compile-and-run
// smoke in make bench and CI; end-to-end speed claims come from bench/.
func BenchmarkEngineQueries(b *testing.B) {
	eng := randomEngine(b, rand.New(rand.NewSource(11)), 5000)
	page := Page{Limit: 50}
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"unfiltered-page", func() error { _, err := eng.Events(Filter{}, page); return err }},
		{"offset-page", func() error { _, err := eng.Events(Filter{}, Page{Offset: 2000, Limit: 50}); return err }},
		{"mfr-page", func() error { _, err := eng.Events(Filter{Manufacturer: "bosch"}, page); return err }},
		{"category-weather-page", func() error {
			_, err := eng.Events(Filter{Category: "ML/Design", Weather: "raining"}, page)
			return err
		}},
		{"month-window", func() error { _, err := eng.Events(Filter{From: "2015-01", To: "2015-12"}, page); return err }},
		{"groupby-tag", func() error { _, err := eng.GroupCount(Filter{}, "tag"); return err }},
		{"groupby-road-modality", func() error { _, err := eng.GroupCount(Filter{Modality: "manual"}, "road"); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

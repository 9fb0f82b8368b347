package snapshot2_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

// jsonBytes renders v the way the avserve API would, so "results are
// byte-identical" is checked at the serialization boundary clients see.
func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// equivalenceQuery is one randomized query of the equivalence set: a
// filter, a page, and a group-by column.
type equivalenceQuery struct {
	f    query.Filter
	page query.Page
	by   string
}

// equivalenceQueries draws the 250 queries the equivalence tests sweep.
// The group-by column is any of query.GroupColumns, time and
// reactionSeconds included.
func equivalenceQueries() []equivalenceQuery {
	rng := rand.New(rand.NewSource(99))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	groupBys := query.GroupColumns()
	out := make([]equivalenceQuery, 250)
	for i := range out {
		out[i].f = query.Filter{
			Manufacturer: pick("", "Waymo", "bosch", "Delphi", "Nissan"),
			Tag:          pick("", "Planner", "software", "Recognition System"),
			Category:     pick("", "ML/Design", "system"),
			Road:         pick("", "highway", "city street"),
			Weather:      pick("", "raining", "sunny"),
			Modality:     pick("", "manual", "automatic"),
			From:         pick("", "2015-01", "2015-06"),
			To:           pick("", "2015-12", "2016-06"),
		}
		out[i].page = query.Page{Offset: rng.Intn(20), Limit: 1 + rng.Intn(50)}
		out[i].by = groupBys[rng.Intn(len(groupBys))]
	}
	return out
}

// calibratedDB runs the full Stage I-IV pipeline for a seed.
func calibratedDB(t *testing.T, seed int64) *core.DB {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	res, err := pipeline.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res.DB
}

// dbRef answers the equivalence queries straight from a core.DB: it scans
// every event of the database in its display form and filters its
// accident table, sharing no code with the engine. It is the reference
// every engine, fresh or mapped, is held to.
type dbRef struct {
	db *core.DB

	mfr, vehicle, year, cause, tag, category, modality, road, weather []string
	times                                                             []time.Time
	reaction                                                          []float64
}

// newDBRef reads db's events into the reference's columns.
func newDBRef(t *testing.T, db *core.DB) *dbRef {
	t.Helper()
	r := &dbRef{db: db}
	for _, e := range db.Events {
		r.mfr = append(r.mfr, string(e.Manufacturer))
		r.vehicle = append(r.vehicle, string(e.Vehicle))
		r.year = append(r.year, e.ReportYear.String())
		r.cause = append(r.cause, e.Cause)
		r.tag = append(r.tag, e.Tag.String())
		r.category = append(r.category, e.Category.String())
		r.modality = append(r.modality, e.Modality.String())
		r.road = append(r.road, e.Road.String())
		r.weather = append(r.weather, e.Weather.String())
		r.times = append(r.times, e.Time)
		r.reaction = append(r.reaction, e.ReactionSeconds)
	}
	return r
}

// inMonths reports whether ts falls in the filter's month bounds.
func inMonths(t *testing.T, f query.Filter, ts time.Time) bool {
	t.Helper()
	from, toExcl, err := query.ParseMonthRange(f.From, f.To)
	if err != nil {
		t.Fatal(err)
	}
	return (from.IsZero() || !ts.Before(from)) && (toExcl.IsZero() || ts.Before(toExcl))
}

// rows returns the event rows f matches, ascending.
func (r *dbRef) rows(t *testing.T, f query.Filter) []int {
	t.Helper()
	var out []int
	for i := range r.mfr {
		ok := inMonths(t, f, r.times[i])
		for _, p := range [...]struct{ got, want string }{
			{r.mfr[i], f.Manufacturer}, {r.tag[i], f.Tag}, {r.category[i], f.Category},
			{r.road[i], f.Road}, {r.weather[i], f.Weather}, {r.modality[i], f.Modality},
		} {
			ok = ok && (p.want == "" || strings.EqualFold(p.got, p.want))
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// pageWindow is the [start, end) slice of total matches page p covers,
// with the offset clamped to 0.
func pageWindow(total int, p query.Page) (offset, start, end int) {
	offset = max(p.Offset, 0)
	start, end = min(offset, total), total
	if p.Limit > 0 && p.Limit < end-start {
		end = start + p.Limit
	}
	return offset, start, end
}

// events is the reference page of matching events.
func (r *dbRef) events(t *testing.T, f query.Filter, p query.Page) query.EventPage {
	ids := r.rows(t, f)
	offset, start, end := pageWindow(len(ids), p)
	page := query.EventPage{Total: len(ids), Offset: offset, Limit: p.Limit, Events: []query.Event{}}
	for _, i := range ids[start:end] {
		page.Events = append(page.Events, query.Event{
			Manufacturer: r.mfr[i], Vehicle: r.vehicle[i], ReportYear: r.year[i],
			Time: r.times[i], Cause: r.cause[i], Tag: r.tag[i], Category: r.category[i],
			Modality: r.modality[i], Road: r.road[i], Weather: r.weather[i],
			ReactionSeconds: r.reaction[i],
		})
	}
	return page
}

// groupCount is the reference group count: each matching event's value
// of the column in display form, its time in RFC 3339 with nanoseconds,
// its reaction time in %g form, or its "YYYY-MM" for month.
func (r *dbRef) groupCount(t *testing.T, f query.Filter, by string) []query.GroupCount {
	t.Helper()
	key := map[string]func(i int) string{
		"manufacturer": func(i int) string { return r.mfr[i] },
		"vehicle":      func(i int) string { return r.vehicle[i] },
		"reportYear":   func(i int) string { return r.year[i] },
		"cause":        func(i int) string { return r.cause[i] },
		"tag":          func(i int) string { return r.tag[i] },
		"category":     func(i int) string { return r.category[i] },
		"modality":     func(i int) string { return r.modality[i] },
		"road":         func(i int) string { return r.road[i] },
		"weather":      func(i int) string { return r.weather[i] },
		"month":        func(i int) string { return r.times[i].Format("2006-01") },
		"time":         func(i int) string { return r.times[i].Format(time.RFC3339Nano) },
		"reactionSeconds": func(i int) string {
			return strconv.FormatFloat(r.reaction[i], 'g', -1, 64)
		},
	}[by]
	if key == nil {
		t.Fatalf("no reference key for column %q", by)
	}
	counts := make(map[string]int)
	for _, i := range r.rows(t, f) {
		counts[key(i)]++
	}
	return sortGroups(counts)
}

// sortGroups orders buckets by descending count, then ascending key.
func sortGroups(counts map[string]int) []query.GroupCount {
	out := make([]query.GroupCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, query.GroupCount{Key: k, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// accidents is the reference accident page: the database's accident
// reports matching the manufacturer and months.
func (r *dbRef) accidents(t *testing.T, f query.Filter, p query.Page) query.AccidentPage {
	matched := []schema.Accident{}
	for _, a := range r.db.Accidents {
		if (f.Manufacturer == "" || strings.EqualFold(string(a.Manufacturer), f.Manufacturer)) && inMonths(t, f, a.Time) {
			matched = append(matched, a)
		}
	}
	offset, start, end := pageWindow(len(matched), p)
	return query.AccidentPage{Total: len(matched), Offset: offset, Limit: p.Limit, Accidents: matched[start:end]}
}

// reliability is the reference reliability metrics, from the database's
// own exposure summary.
func (r *dbRef) reliability(t *testing.T) []query.ReliabilityMetric {
	t.Helper()
	rows, err := query.Reliability(r.db.Exposure())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestViewAccessorsMatchDatabase holds every per-row View accessor equal
// to the matching field of the database's events, in display form, on
// calibrated studies, the seeds whose parses lose rows included: the
// View's string forms are the database's.
func TestViewAccessorsMatchDatabase(t *testing.T) {
	for _, seed := range []int64{1, 41, 165, 190} {
		db := calibratedDB(t, seed)
		data, err := snapshot2.Encode(db)
		if err != nil {
			t.Fatal(err)
		}
		v, err := snapshot2.NewView(data)
		if err != nil {
			t.Fatal(err)
		}
		ref := newDBRef(t, db)
		if v.NumRows() != len(ref.mfr) {
			t.Fatalf("seed %d: View has %d rows, database %d", seed, v.NumRows(), len(ref.mfr))
		}
		for i := range ref.mfr {
			for _, c := range [...]struct {
				name      string
				got, want string
			}{
				{"manufacturer", v.Manufacturer(i), ref.mfr[i]},
				{"vehicle", v.Vehicle(i), ref.vehicle[i]},
				{"reportYear", v.ReportYear(i), ref.year[i]},
				{"cause", v.Cause(i), ref.cause[i]},
				{"tag", v.Tag(i), ref.tag[i]},
				{"category", v.Category(i), ref.category[i]},
				{"modality", v.Modality(i), ref.modality[i]},
				{"road", v.Road(i), ref.road[i]},
				{"weather", v.Weather(i), ref.weather[i]},
				{"time", v.Time(i).Format(time.RFC3339Nano), ref.times[i].Format(time.RFC3339Nano)},
			} {
				if c.got != c.want {
					t.Fatalf("seed %d row %d %s: View %q, database %q", seed, i, c.name, c.got, c.want)
				}
			}
			if got, want := v.ReactionSeconds(i), ref.reaction[i]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d row %d reactionSeconds: View %g, database %g", seed, i, got, want)
			}
			if got, want := v.TimeUnix(i), ref.times[i].Unix(); got != want {
				t.Fatalf("seed %d row %d TimeUnix: View %d, database %d", seed, i, got, want)
			}
		}
	}
}

// TestSelectMergesCaseVariants: manufacturer spellings that differ only in
// case are separate string ids, and a filter matches all of them, in
// ascending row order when their rows interleave.
func TestSelectMergesCaseVariants(t *testing.T) {
	db := snapshot2.TestDB(29, 120, 0)
	spellings := []schema.Manufacturer{"Waymo", "WAYMO", "waymo"}
	var want []int
	for i := range db.Events {
		if i%2 == 0 {
			db.Events[i].Manufacturer = spellings[(i/2)%len(spellings)]
			want = append(want, i)
		} else if strings.EqualFold(string(db.Events[i].Manufacturer), "waymo") {
			db.Events[i].Manufacturer = "Bosch"
		}
	}
	eng, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Select(query.Filter{Manufacturer: "waymo"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Select(waymo) = %v, want %v", got, want)
	}
}

// TestCalibratedStudiesAnswerFromColumns builds calibrated studies and
// holds a View's exposure summary equal to the heap database's, bit for
// bit, and its engine's reliability metrics and accident pages (over the
// filters and pages of the equivalence set) byte-identical to the answers
// derived from the database itself.
func TestCalibratedStudiesAnswerFromColumns(t *testing.T) {
	for _, seed := range []int64{1, 2, 41, 165, 190, 500} {
		db := calibratedDB(t, seed)
		data, err := snapshot2.Encode(db)
		if err != nil {
			t.Fatal(err)
		}
		v, err := snapshot2.NewView(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Exposure()
		if err != nil {
			t.Fatal(err)
		}
		if want := db.Exposure(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: View exposure differs from the database's", seed)
		}
		ref := newDBRef(t, db)
		mapped := query.NewFromView(v)
		wantRel := ref.reliability(t)
		gotRel, err := mapped.Reliability()
		if err != nil {
			t.Fatalf("seed %d: mapped reliability: %v", seed, err)
		}
		if !bytes.Equal(jsonBytes(t, wantRel), jsonBytes(t, gotRel)) {
			t.Fatalf("seed %d: reliability metrics diverge", seed)
		}
		for _, q := range append(equivalenceQueries(), equivalenceQuery{}, equivalenceQuery{page: query.Page{Offset: 40, Limit: 1000}}) {
			want := ref.accidents(t, q.f, q.page)
			got, err := mapped.Accidents(q.f, q.page)
			if err != nil {
				t.Fatalf("seed %d: mapped accidents: %v", seed, err)
			}
			if !bytes.Equal(jsonBytes(t, want), jsonBytes(t, got)) {
				t.Fatalf("seed %d filter %+v page %+v: accident pages diverge", seed, q.f, q.page)
			}
		}
	}
}

// TestEventsJSONMatchesEncoder holds the disengagement bodies avserve
// writes, Engine.AppendEventsJSON, byte-identical to a json.Encoder with
// SetEscapeHTML(false) over Engine.Events, on calibrated studies through
// a fresh build's heap View and a mapped file: the 250 equivalence
// filters, each with a random page from one row to the largest the
// server allows, some past the last match.
func TestEventsJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, seed := range []int64{1, 41} {
		db, engines := calibratedEngines(t, seed)
		var buf []byte
		for _, q := range equivalenceQueries() {
			page := query.Page{Offset: rng.Intn(len(db.Events) + 100), Limit: 1 + rng.Intn(1000)}
			if rng.Intn(2) == 0 {
				page.Offset = rng.Intn(60)
			}
			for _, eng := range engines {
				res, err := eng.e.Events(q.f, page)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(res); err != nil {
					t.Fatal(err)
				}
				if buf, err = eng.e.AppendEventsJSON(buf[:0], q.f, page); err != nil {
					t.Fatalf("seed %d %s %+v %+v: %v", seed, eng.name, q.f, page, err)
				}
				if !bytes.Equal(buf, want.Bytes()) {
					t.Fatalf("seed %d %s filter %+v page %+v: bodies diverge\n got %.300s\nwant %.300s",
						seed, eng.name, q.f, page, buf, want.Bytes())
				}
			}
		}
	}
}

// TestEventsCSVMatchesDatabase holds the events CSV export,
// Engine.WriteEventsCSV, byte-identical to an encoding/csv writer over the
// database's own events at the rows SelectScan picks, on calibrated
// studies through a fresh build's heap View and a mapped file: the 250
// equivalence filters and the empty one.
func TestEventsCSVMatchesDatabase(t *testing.T) {
	for _, seed := range []int64{1, 41} {
		db, engines := calibratedEngines(t, seed)
		for _, q := range append(equivalenceQueries(), equivalenceQuery{}) {
			for _, eng := range engines {
				ids, err := eng.e.SelectScan(q.f)
				if err != nil {
					t.Fatal(err)
				}
				var want, got bytes.Buffer
				cw := csv.NewWriter(&want)
				if err := cw.Write([]string{"manufacturer", "vehicle", "reportYear", "time", "cause",
					"tag", "category", "modality", "road", "weather", "reactionSeconds"}); err != nil {
					t.Fatal(err)
				}
				for _, i := range ids {
					e := &db.Events[i]
					if err := cw.Write([]string{string(e.Manufacturer), string(e.Vehicle),
						e.ReportYear.String(), e.Time.Format(time.RFC3339), e.Cause, e.Tag.String(),
						e.Category.String(), e.Modality.String(), e.Road.String(), e.Weather.String(),
						strconv.FormatFloat(e.ReactionSeconds, 'g', -1, 64)}); err != nil {
						t.Fatal(err)
					}
				}
				cw.Flush()
				if err := cw.Error(); err != nil {
					t.Fatal(err)
				}
				if err := eng.e.WriteEventsCSV(&got, q.f); err != nil {
					t.Fatalf("seed %d %s %+v: %v", seed, eng.name, q.f, err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("seed %d %s filter %+v: CSV diverges (%d rows)\n got %.300s\nwant %.300s",
						seed, eng.name, q.f, len(ids), got.Bytes(), want.Bytes())
				}
			}
		}
	}
}

// namedEngine is one engine under test and the name failures report.
type namedEngine struct {
	name string
	e    *query.Engine
}

// calibratedEngines builds the calibrated study for seed and returns its
// database with two engines over it: "fresh", over the heap bytes New
// encodes, and "mapped", over the snapshot file, unmapped when the test
// ends.
func calibratedEngines(t *testing.T, seed int64) (*core.DB, []namedEngine) {
	t.Helper()
	db := calibratedDB(t, seed)
	fresh, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := fresh.WriteSeed(dir, seed); err != nil {
		t.Fatal(err)
	}
	v, err := snapshot2.OpenSeed(dir, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := v.Close(); err != nil {
			t.Error(err)
		}
	})
	return db, []namedEngine{{"fresh", fresh}, {"mapped", query.NewFromView(v)}}
}

// TestSnapshotV2QueryEquivalence is the contract behind serving every
// study through a View: an engine over a fresh build's heap bytes (New)
// and one over the mapped snapshot file (NewFromView) both answer every
// query byte-identically to answers derived from the original in-memory
// database. 250 randomized filters sweep the full query surface — event
// pages, accident pages, group counts over every column, counts,
// indexed-vs-scan selection, and reliability metrics.
func TestSnapshotV2QueryEquivalence(t *testing.T) {
	db := snapshot2.TestDB(11, 400, 40)
	ref := newDBRef(t, db)
	fresh, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := snapshot2.WriteSeed(dir, 11, db); err != nil {
		t.Fatal(err)
	}
	v, err := snapshot2.OpenSeed(dir, 11)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	mapped := query.NewFromView(v)

	for _, eng := range []namedEngine{{"fresh", fresh}, {"mapped", mapped}} {
		if eng.e.Len() != len(db.Events) {
			t.Fatalf("%s Len %d, database %d", eng.name, eng.e.Len(), len(db.Events))
		}
		for _, q := range equivalenceQueries() {
			f, page := q.f, q.page

			gotN, err := eng.e.Count(f)
			if err != nil {
				t.Fatal(err)
			}
			if wantN := len(ref.rows(t, f)); wantN != gotN {
				t.Fatalf("%s filter %+v: count reference %d, engine %d", eng.name, f, wantN, gotN)
			}

			gotEv, err := eng.e.Events(f, page)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsonBytes(t, ref.events(t, f, page)), jsonBytes(t, gotEv)) {
				t.Fatalf("%s filter %+v: event pages diverge", eng.name, f)
			}

			gotAcc, err := eng.e.Accidents(f, page)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsonBytes(t, ref.accidents(t, f, page)), jsonBytes(t, gotAcc)) {
				t.Fatalf("%s filter %+v: accident pages diverge", eng.name, f)
			}

			gotGr, err := eng.e.GroupCount(f, q.by)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(jsonBytes(t, ref.groupCount(t, f, q.by)), jsonBytes(t, gotGr)) {
				t.Fatalf("%s filter %+v by %s: group counts diverge", eng.name, f, q.by)
			}

			// The posting lists must agree with the scan path and with the
			// reference's rows.
			indexed, err := eng.e.Select(f)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := eng.e.SelectScan(f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(indexed, scanned) || !slices.Equal(indexed, ref.rows(t, f)) {
				t.Fatalf("%s filter %+v: index, scan and reference disagree", eng.name, f)
			}
		}

		gotRel, err := eng.e.Reliability()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, ref.reliability(t)), jsonBytes(t, gotRel)) {
			t.Fatalf("%s: reliability metrics diverge", eng.name)
		}
	}
}

// refMappedEvents is the select-then-slice Events loop, run over the
// mapped engine's SelectScan ids and materialized from the View's own
// accessors: the reference page the streamed Events must reproduce.
func refMappedEvents(t *testing.T, eng *query.Engine, v *snapshot2.View, f query.Filter, p query.Page) query.EventPage {
	t.Helper()
	ids, err := eng.SelectScan(f)
	if err != nil {
		t.Fatal(err)
	}
	if p.Offset < 0 {
		p.Offset = 0
	}
	page := query.EventPage{Total: len(ids), Offset: p.Offset, Limit: p.Limit}
	start := p.Offset
	if start > len(ids) {
		start = len(ids)
	}
	end := len(ids)
	if p.Limit > 0 && start+p.Limit < end {
		end = start + p.Limit
	}
	page.Events = make([]query.Event, 0, end-start)
	for _, i := range ids[start:end] {
		page.Events = append(page.Events, query.Event{
			Manufacturer: v.Manufacturer(i), Vehicle: v.Vehicle(i), ReportYear: v.ReportYear(i),
			Time: v.Time(i), Cause: v.Cause(i), Tag: v.Tag(i), Category: v.Category(i),
			Modality: v.Modality(i), Road: v.Road(i), Weather: v.Weather(i),
			ReactionSeconds: v.ReactionSeconds(i),
		})
	}
	return page
}

// refMappedGroupCount is the select-then-count GroupCount loop over the
// typed columns, run over SelectScan ids and the View's accessors.
func refMappedGroupCount(t *testing.T, eng *query.Engine, v *snapshot2.View, f query.Filter, by string) []query.GroupCount {
	t.Helper()
	ids, err := eng.SelectScan(f)
	if err != nil {
		t.Fatal(err)
	}
	key := map[string]func(int) string{
		"manufacturer": v.Manufacturer, "tag": v.Tag, "category": v.Category,
		"road": v.Road, "weather": v.Weather, "modality": v.Modality,
		"month":   func(i int) string { return v.Time(i).Format("2006-01") },
		"vehicle": v.Vehicle, "reportYear": v.ReportYear, "cause": v.Cause,
		"time": func(i int) string { return v.Time(i).Format(time.RFC3339Nano) },
		"reactionSeconds": func(i int) string {
			return strconv.FormatFloat(v.ReactionSeconds(i), 'g', -1, 64)
		},
	}[by]
	counts := make(map[string]int)
	for _, i := range ids {
		counts[key(i)]++
	}
	return sortGroups(counts)
}

// TestSnapshotV2StreamedAnswersMatchReference holds the mapped engine's
// streamed Events, Count, and GroupCount byte-identical to the
// select-then-slice references, including the filter shapes random draws
// rarely produce (nothing set, month-only, one non-indexed predicate) and
// pages at the window's edges.
func TestSnapshotV2StreamedAnswersMatchReference(t *testing.T) {
	data, err := snapshot2.Encode(snapshot2.TestDB(23, 400, 10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := snapshot2.NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	mapped := query.NewFromView(v)
	for _, f := range []query.Filter{
		{},
		{From: "2015-03", To: "2016-06"},
		{To: "2015-06"},
		{Road: "highway"},
		{Weather: "raining"},
		{Manufacturer: "waymo", Modality: "manual"},
		{Tag: "Planner", Road: "city street", From: "2015-01"},
		{Manufacturer: "Tesla"},
	} {
		scan, err := mapped.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		n, err := mapped.Count(f)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(scan) {
			t.Fatalf("%+v: Count %d, scan %d", f, n, len(scan))
		}
		for _, p := range []query.Page{
			{},
			{Limit: 9},
			{Offset: -2, Limit: 4},
			{Offset: len(scan), Limit: 5},
			{Offset: len(scan) - 1, Limit: 5},
			{Offset: math.MaxInt, Limit: 1000},
		} {
			got, err := mapped.Events(f, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMappedEvents(t, mapped, v, f, p); !bytes.Equal(jsonBytes(t, got), jsonBytes(t, want)) {
				t.Fatalf("%+v page %+v: mapped Events diverge from reference", f, p)
			}
		}
		for _, by := range query.GroupColumns() {
			got, err := mapped.GroupCount(f, by)
			if err != nil {
				t.Fatal(err)
			}
			if want := refMappedGroupCount(t, mapped, v, f, by); !bytes.Equal(jsonBytes(t, got), jsonBytes(t, want)) {
				t.Fatalf("%+v by %s: mapped GroupCount diverges from reference", f, by)
			}
		}
	}
}

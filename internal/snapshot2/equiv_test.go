package snapshot2

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"avfda/internal/pipeline"
	"avfda/internal/query"
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
func equivalenceQueries() []equivalenceQuery {
	rng := rand.New(rand.NewSource(99))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	groupBys := append(query.GroupColumns(), "cause", "vehicle", "reportYear")
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

// TestCalibratedStudiesAnswerFromColumns builds calibrated studies and
// holds a View's exposure summary equal to the heap database's, bit for
// bit, and its engine's reliability metrics and accident pages (over the
// filters and pages of the equivalence set) byte-identical to a heap
// engine's. The mapped engine has no database hook at all, so these
// answers provably come from the columns.
func TestCalibratedStudiesAnswerFromColumns(t *testing.T) {
	for _, seed := range []int64{1, 2, 41, 165, 190, 500} {
		cfg := pipeline.DefaultConfig()
		cfg.Synth = synth.Config{Seed: seed}
		cfg.OCR.Seed = seed
		res, err := pipeline.Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, err := Encode(res.DB)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.Exposure()
		if err != nil {
			t.Fatal(err)
		}
		if want := res.DB.Exposure(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: View exposure differs from the database's", seed)
		}
		heap, err := query.New(res.DB)
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := query.NewFromSource(v, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantRel, err := heap.Reliability()
		if err != nil {
			t.Fatal(err)
		}
		gotRel, err := mapped.Reliability()
		if err != nil {
			t.Fatalf("seed %d: mapped reliability: %v", seed, err)
		}
		if !bytes.Equal(jsonBytes(t, wantRel), jsonBytes(t, gotRel)) {
			t.Fatalf("seed %d: reliability metrics diverge", seed)
		}
		for _, q := range append(equivalenceQueries(), equivalenceQuery{}, equivalenceQuery{page: query.Page{Offset: 40, Limit: 1000}}) {
			want, err := heap.Accidents(q.f, q.page)
			if err != nil {
				t.Fatal(err)
			}
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

// TestSnapshotV2QueryEquivalence is the contract that lets avserve swap a
// mapped View in where a deserialized database used to be: an engine
// backed by the v2 columns answers every query byte-identically to an
// engine built fresh on the original in-memory database. 250 randomized
// filters sweep the full query surface — event pages, accident pages,
// group counts over the typed columns and the dataframe-fallback columns,
// counts, indexed-vs-scan selection, reliability metrics, and CSV export.
func TestSnapshotV2QueryEquivalence(t *testing.T) {
	db := testDB(11, 400, 40)
	data, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := query.New(db)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := query.NewFromSource(v, v.Database)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != mapped.Len() {
		t.Fatalf("Len: fresh %d, mapped %d", fresh.Len(), mapped.Len())
	}

	for i, q := range equivalenceQueries() {
		f, page := q.f, q.page

		wantN, err := fresh.Count(f)
		if err != nil {
			t.Fatal(err)
		}
		gotN, err := mapped.Count(f)
		if err != nil {
			t.Fatal(err)
		}
		if wantN != gotN {
			t.Fatalf("filter %+v: count fresh %d, mapped %d", f, wantN, gotN)
		}

		wantEv, err := fresh.Events(f, page)
		if err != nil {
			t.Fatal(err)
		}
		gotEv, err := mapped.Events(f, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, wantEv), jsonBytes(t, gotEv)) {
			t.Fatalf("filter %+v: event pages diverge", f)
		}

		wantAcc, err := fresh.Accidents(f, page)
		if err != nil {
			t.Fatal(err)
		}
		gotAcc, err := mapped.Accidents(f, page)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, wantAcc), jsonBytes(t, gotAcc)) {
			t.Fatalf("filter %+v: accident pages diverge", f)
		}

		by := q.by
		wantGr, err := fresh.GroupCount(f, by)
		if err != nil {
			t.Fatal(err)
		}
		gotGr, err := mapped.GroupCount(f, by)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jsonBytes(t, wantGr), jsonBytes(t, gotGr)) {
			t.Fatalf("filter %+v by %s: group counts diverge", f, by)
		}

		// The mapped engine's posting lists must agree with its own scan
		// path, the same invariant the in-heap indexes are held to.
		indexed, err := mapped.Select(f)
		if err != nil {
			t.Fatal(err)
		}
		scanned, err := mapped.SelectScan(f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("filter %+v: mapped engine's index disagrees with scan", f)
		}

		if i%25 == 0 {
			var wantCSV, gotCSV bytes.Buffer
			wantFr, err := fresh.Frame(f)
			if err != nil {
				t.Fatal(err)
			}
			gotFr, err := mapped.Frame(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := wantFr.WriteCSV(&wantCSV); err != nil {
				t.Fatal(err)
			}
			if err := gotFr.WriteCSV(&gotCSV); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantCSV.Bytes(), gotCSV.Bytes()) {
				t.Fatalf("filter %+v: CSV export diverges", f)
			}
		}
	}

	wantRel, err := fresh.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	gotRel, err := mapped.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonBytes(t, wantRel), jsonBytes(t, gotRel)) {
		t.Fatal("reliability metrics diverge")
	}
}

// refMappedEvents is the select-then-slice Events loop, run over the
// mapped engine's SelectScan ids and materialized from the View's own
// accessors: the reference page the streamed Events must reproduce.
func refMappedEvents(t *testing.T, eng *query.Engine, v *View, f query.Filter, p query.Page) query.EventPage {
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
func refMappedGroupCount(t *testing.T, eng *query.Engine, v *View, f query.Filter, by string) []query.GroupCount {
	t.Helper()
	ids, err := eng.SelectScan(f)
	if err != nil {
		t.Fatal(err)
	}
	key := map[string]func(int) string{
		"manufacturer": v.Manufacturer, "tag": v.Tag, "category": v.Category,
		"road": v.Road, "weather": v.Weather, "modality": v.Modality,
		"month": func(i int) string { return v.Time(i).Format("2006-01") },
	}[by]
	counts := make(map[string]int)
	for _, i := range ids {
		counts[key(i)]++
	}
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

// TestSnapshotV2StreamedAnswersMatchReference holds the mapped engine's
// streamed Events, Count, and GroupCount byte-identical to the
// select-then-slice references, including the filter shapes random draws
// rarely produce (nothing set, month-only, one non-indexed predicate) and
// pages at the window's edges.
func TestSnapshotV2StreamedAnswersMatchReference(t *testing.T) {
	data, err := Encode(testDB(23, 400, 10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := query.NewFromSource(v, v.Database)
	if err != nil {
		t.Fatal(err)
	}
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

package query

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// encodeJSON renders v as avserve renders its encoding/json bodies: a
// json.Encoder's output with HTML characters unescaped, trailing newline
// included.
func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// awkwardStrings are strings whose JSON form differs from their bytes, or
// sits next to a byte that does: quotes, backslashes, control bytes,
// invalid UTF-8, the JavaScript line separators, the HTML characters the
// serving layer leaves unescaped, and the long s the filters fold.
var awkwardStrings = []string{
	"", "plain", `say "stop"`, `back\slash`, "tab\there", "nl\nand\rcr",
	"\x00\x01\x1f\x7f", "\b\f", "bad \xff utf8", "\xc3", "\xe2\x80",
	"line\u2028sep\u2029", "<b>&amp;</b>", "ſoftware", "日本語", "\u00e9t\u00e9",
	`\u2028`, "end\\",
}

// FuzzAppendJSONString holds the string writer byte-identical to
// encoding/json with SetEscapeHTML(false), for strings and byte slices.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range awkwardStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := bytes.TrimSuffix(encodeJSON(t, s), []byte("\n"))
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) {
			t.Fatalf("string %q: got %s, want %s", s, got[1:], want)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("bytes %q: got %s, want %s", s, got, want)
		}
	})
}

// TestAppendFloatMatchesEncodingJSON checks the float writer at the
// boundaries of encoding/json's 'f' and exponent forms, and that the
// values JSON cannot carry are errors.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 2.25, 1e-6, 9.99e-7, -1e-7,
		1e-9, 1.5e-10, 1e20, 1e21, -1e21, 123456789e15, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1.0 / 3, -4.5e-300}
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for _, x := range xs {
		got, err := appendFloat(nil, x)
		want, wantErr := json.Marshal(x)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v: error %v, encoding/json %v", x, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%v: got %s, want %s", x, got, want)
		}
	}
}

// awkwardDB is randomDB with every manufacturer, vehicle and cause drawn
// from awkwardStrings, and reaction times spread over the float forms.
func awkwardDB(rng *rand.Rand, n int) *core.DB {
	db := randomDB(rng, n)
	pick := func() string { return awkwardStrings[rng.Intn(len(awkwardStrings))] }
	reactions := []float64{0, -1, 1e-7, 2.5e-9, 1e21, 3.75, 0.1}
	for i := range db.Events {
		ev := &db.Events[i].Disengagement
		ev.Manufacturer = schema.Manufacturer(pick())
		ev.Vehicle = schema.VehicleID(pick())
		ev.Cause = pick() + pick()
		if i%3 == 0 {
			ev.ReactionSeconds = reactions[rng.Intn(len(reactions))]
		}
	}
	return db
}

// TestAppendEventsJSONMatchesEncoder holds the appender byte-identical to
// encoding/json over Events, on a corpus of ordinary strings and on one
// whose strings all need care, over filters with every predicate kind and
// pages at the window's edges. Each engine answers every query twice, so
// the second pass reads strings the clean memo has already decided.
func TestAppendEventsJSONMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	filters := []Filter{
		{}, {Manufacturer: "waymo"}, {Manufacturer: `SAY "STOP"`}, {Manufacturer: "ſoftware"},
		{Manufacturer: "\xff"}, {Road: "highway", From: "2015-03"}, {Tag: "Software", To: "2016-01"},
		{Category: "ML/Design", Weather: "sunny", Modality: "manual"},
	}
	pages := []Page{{}, {Limit: 1}, {Limit: 50}, {Offset: 3, Limit: 7}, {Offset: -2, Limit: 4},
		{Offset: 399, Limit: 5}, {Offset: math.MaxInt, Limit: 1000}, {Offset: 10}}
	for name, db := range map[string]*core.DB{"random": randomDB(rng, 400), "awkward": awkwardDB(rng, 400)} {
		eng, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		for pass := range 2 {
			for _, f := range filters {
				for _, p := range pages {
					page, err := eng.Events(f, p)
					if err != nil {
						t.Fatal(err)
					}
					want := encodeJSON(t, page)
					got, err := eng.AppendEventsJSON([]byte("prefix"), f, p)
					if err != nil {
						t.Fatalf("%s pass %d %+v %+v: %v", name, pass, f, p, err)
					}
					if !bytes.Equal(got[len("prefix"):], want) || !bytes.HasPrefix(got, []byte("prefix")) {
						t.Fatalf("%s pass %d %+v %+v:\n got %s\nwant %s", name, pass, f, p, got, want)
					}
				}
			}
		}
	}
}

// TestAppendEventsJSONRejectsWhatJSONCannotCarry checks that a row
// encoding/json refuses is an error from the appender too: a NaN or
// infinite reaction time, and a time whose year has no RFC 3339 form.
func TestAppendEventsJSONRejectsWhatJSONCannotCarry(t *testing.T) {
	for name, mutate := range map[string]func(ev *schema.Disengagement){
		"nan":        func(ev *schema.Disengagement) { ev.ReactionSeconds = math.NaN() },
		"+inf":       func(ev *schema.Disengagement) { ev.ReactionSeconds = math.Inf(1) },
		"-inf":       func(ev *schema.Disengagement) { ev.ReactionSeconds = math.Inf(-1) },
		"year 10000": func(ev *schema.Disengagement) { ev.Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
		"year -1":    func(ev *schema.Disengagement) { ev.Time = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		db := randomDB(rand.New(rand.NewSource(5)), 6)
		mutate(&db.Events[4].Disengagement)
		eng, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		page, err := eng.Events(Filter{}, Page{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := json.Marshal(page); err == nil {
			t.Fatalf("%s: encoding/json accepts the row", name)
		}
		if _, err := eng.AppendEventsJSON(nil, Filter{}, Page{}); err == nil {
			t.Fatalf("%s: the appender accepts the row", name)
		}
		if _, err := eng.AppendEventsJSON(nil, Filter{}, Page{Limit: 4}); err != nil {
			t.Fatalf("%s: a page without the row: %v", name, err)
		}
	}
}

// TestEnumNamesNeedNoEscaping pins what appendField relies on: the display
// name of every enum code an event column can hold, defined or not, is
// its own JSON string body.
func TestEnumNamesNeedNoEscaping(t *testing.T) {
	for k := int64(-3); k < 3*enumCodes; k++ {
		for _, name := range []string{
			ontology.Tag(k).String(), ontology.Category(k).String(), schema.ReportYear(k).String(),
			schema.RoadType(k).String(), schema.Weather(k).String(), schema.Modality(k).String(),
		} {
			if got := string(appendJSONString(nil, name)); got != `"`+name+`"` {
				t.Errorf("code %d: name %q encodes as %s", k, name, got)
			}
		}
	}
	for _, k := range []int64{math.MinInt64, math.MaxInt64} {
		if name := ontology.Tag(k).String(); string(appendJSONString(nil, name)) != `"`+name+`"` {
			t.Errorf("code %d: name %q needs escaping", k, name)
		}
	}
}

package frame

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func demo(t *testing.T) *Frame {
	t.Helper()
	f := New()
	if err := f.AddStrings("mfr", []string{"Waymo", "Bosch", "Waymo", "Nissan", "Bosch"}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFloats("miles", []float64{100, 20, 300, 50, 10}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddInts("events", []int64{1, 5, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := f.AddTimes("month", []time.Time{
		base, base.AddDate(0, 1, 0), base.AddDate(0, 2, 0),
		base.AddDate(0, 3, 0), base.AddDate(0, 4, 0),
	}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAddAndShape(t *testing.T) {
	f := demo(t)
	if f.NumRows() != 5 || f.NumCols() != 4 {
		t.Fatalf("shape = %dx%d, want 5x4", f.NumRows(), f.NumCols())
	}
	want := []string{"mfr", "miles", "events", "month"}
	got := f.Names()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v", got)
		}
	}
}

func TestAddErrors(t *testing.T) {
	f := New()
	if err := f.AddFloats("", []float64{1}); err == nil {
		t.Error("empty name: want error")
	}
	if err := f.AddFloats("x", []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddFloats("x", []float64{3, 4}); err == nil {
		t.Error("duplicate name: want error")
	}
	if err := f.AddInts("y", []int64{1}); err == nil {
		t.Error("length mismatch: want error")
	}
}

func TestColumnAccessors(t *testing.T) {
	f := demo(t)
	miles, err := f.Floats("miles")
	if err != nil {
		t.Fatal(err)
	}
	if miles[2] != 300 {
		t.Errorf("miles[2] = %g", miles[2])
	}
	// Mutating the returned copy must not affect the frame.
	miles[0] = -1
	again, _ := f.Floats("miles")
	if again[0] != 100 {
		t.Error("Floats returned aliased storage")
	}
	if _, err := f.Floats("mfr"); err == nil {
		t.Error("kind mismatch: want error")
	}
	if _, err := f.Floats("nope"); err == nil {
		t.Error("missing column: want error")
	}
	ev, err := f.Ints("events")
	if err != nil || ev[1] != 5 {
		t.Errorf("Ints: %v, %v", ev, err)
	}
	ms, err := f.StringsCol("mfr")
	if err != nil || ms[3] != "Nissan" {
		t.Errorf("StringsCol: %v, %v", ms, err)
	}
	ts, err := f.Times("month")
	if err != nil || ts[0].Month() != time.January {
		t.Errorf("Times: %v, %v", ts, err)
	}
}

func TestSelect(t *testing.T) {
	f := demo(t)
	sub, err := f.Select("events", "mfr")
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumCols() != 2 || sub.Names()[0] != "events" {
		t.Errorf("Select shape/order wrong: %v", sub.Names())
	}
	if _, err := f.Select("ghost"); err == nil {
		t.Error("missing column: want error")
	}
}

func TestFilter(t *testing.T) {
	f := demo(t)
	sub := f.Filter(func(r Row) bool { return r.String("mfr") == "Waymo" })
	if sub.NumRows() != 2 {
		t.Fatalf("filtered rows = %d, want 2", sub.NumRows())
	}
	miles, _ := sub.Floats("miles")
	if miles[0] != 100 || miles[1] != 300 {
		t.Errorf("filtered miles = %v", miles)
	}
	empty := f.Filter(func(r Row) bool { return false })
	if empty.NumRows() != 0 {
		t.Errorf("empty filter rows = %d", empty.NumRows())
	}
}

func TestRowAccessors(t *testing.T) {
	f := demo(t)
	var got Row
	f.Filter(func(r Row) bool {
		if r.Index() == 1 {
			got = r
		}
		return false
	})
	if got.String("mfr") != "Bosch" || got.Float("miles") != 20 || got.Int("events") != 5 {
		t.Errorf("row accessors wrong: %s %g %d", got.String("mfr"), got.Float("miles"), got.Int("events"))
	}
	if !math.IsNaN(got.Float("mfr")) || !math.IsNaN(got.Float("ghost")) {
		t.Error("Float on non-float should be NaN")
	}
	if got.Int("miles") != 0 || got.String("events") != "" || !got.Time("events").IsZero() {
		t.Error("mistyped row accessors should return zero values")
	}
	if got.Time("month").Month() != time.February {
		t.Errorf("row time = %v", got.Time("month"))
	}
}

func TestSortBy(t *testing.T) {
	f := demo(t)
	sorted, err := f.SortBy("mfr", "miles")
	if err != nil {
		t.Fatal(err)
	}
	ms, _ := sorted.StringsCol("mfr")
	miles, _ := sorted.Floats("miles")
	wantM := []string{"Bosch", "Bosch", "Nissan", "Waymo", "Waymo"}
	wantMi := []float64{10, 20, 50, 100, 300}
	for i := range wantM {
		if ms[i] != wantM[i] || miles[i] != wantMi[i] {
			t.Fatalf("sorted = %v / %v", ms, miles)
		}
	}
	if _, err := f.SortBy("ghost"); err == nil {
		t.Error("missing sort column: want error")
	}
}

func TestGroupByOrdered(t *testing.T) {
	f := demo(t)
	groups, err := f.GroupBy("mfr")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// First-appearance order: Waymo, Bosch, Nissan.
	wantOrder := []string{"Waymo", "Bosch", "Nissan"}
	for i, g := range groups {
		if g.Key[0] != wantOrder[i] {
			t.Errorf("group %d key = %v, want %s", i, g.Key, wantOrder[i])
		}
	}
	if groups[0].Frame.NumRows() != 2 || groups[2].Frame.NumRows() != 1 {
		t.Error("group sizes wrong")
	}
	if _, err := f.GroupBy("ghost"); err == nil {
		t.Error("missing group column: want error")
	}
}

func TestAggregate(t *testing.T) {
	f := demo(t)
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	out, err := f.Aggregate([]string{"mfr"}, []Agg{
		{Col: "miles", As: "totalMiles", Fn: sum},
		{Col: "miles", As: "maxMiles", Fn: func(xs []float64) float64 {
			m := xs[0]
			for _, x := range xs {
				if x > m {
					m = x
				}
			}
			return m
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("agg rows = %d", out.NumRows())
	}
	total, _ := out.Floats("totalMiles")
	if total[0] != 400 { // Waymo 100+300
		t.Errorf("Waymo total = %g, want 400", total[0])
	}
	maxes, _ := out.Floats("maxMiles")
	if maxes[1] != 20 { // Bosch max
		t.Errorf("Bosch max = %g, want 20", maxes[1])
	}
	if _, err := f.Aggregate([]string{"mfr"}, []Agg{{Col: "mfr", As: "x", Fn: sum}}); err == nil {
		t.Error("aggregating a string column: want error")
	}
}

func TestHeadAndString(t *testing.T) {
	f := demo(t)
	h := f.Head(2)
	if h.NumRows() != 2 {
		t.Errorf("Head rows = %d", h.NumRows())
	}
	if f.Head(99).NumRows() != 5 {
		t.Error("Head beyond length should clamp")
	}
	s := f.String()
	if !strings.Contains(s, "mfr") || !strings.Contains(s, "Waymo") {
		t.Errorf("String output missing content:\n%s", s)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := demo(t)
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != f.NumRows()+1 || len(recs[0]) != f.NumCols() {
		t.Fatalf("round-trip shape %dx%d", len(recs)-1, len(recs[0]))
	}
	col := func(name string) int {
		return slices.Index(recs[0], name)
	}
	m1, _ := f.Floats("miles")
	for i := range m1 {
		m2, err := strconv.ParseFloat(recs[i+1][col("miles")], 64)
		if err != nil || m1[i] != m2 {
			t.Fatalf("miles differ at %d: %g vs %g (%v)", i, m1[i], m2, err)
		}
	}
	t1, _ := f.Times("month")
	for i := range t1 {
		t2, err := time.Parse(time.RFC3339, recs[i+1][col("month")])
		if err != nil || !t1[i].Equal(t2) {
			t.Fatalf("times differ at %d (%v)", i, err)
		}
	}
}

// failingWriter errors after n bytes, exercising WriteCSV's error paths.
type failingWriter struct{ left int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errWriteFailed
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

var errWriteFailed = errFailed{}

type errFailed struct{}

func (errFailed) Error() string { return "write failed" }

func TestWriteCSVWriterFailure(t *testing.T) {
	f := demo(t)
	if err := f.WriteCSV(&failingWriter{left: 0}); err == nil {
		t.Error("immediate write failure: want error")
	}
	if err := f.WriteCSV(&failingWriter{left: 30}); err == nil {
		t.Error("mid-stream write failure: want error")
	}
}

// Property: group-by is a partition — group sizes sum to NumRows and every
// group is homogeneous in its key.
func TestGroupByPartitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		keys := make([]string, n)
		vals := make([]float64, n)
		pool := []string{"a", "b", "c", "d"}
		for i := 0; i < n; i++ {
			keys[i] = pool[r.Intn(len(pool))]
			vals[i] = r.Float64()
		}
		f := New()
		if err := f.AddStrings("k", keys); err != nil {
			return false
		}
		if err := f.AddFloats("v", vals); err != nil {
			return false
		}
		groups, err := f.GroupBy("k")
		if err != nil {
			return false
		}
		total := 0
		for _, g := range groups {
			total += g.Frame.NumRows()
			ks, err := g.Frame.StringsCol("k")
			if err != nil {
				return false
			}
			for _, k := range ks {
				if k != g.Key[0] {
					return false
				}
			}
		}
		return total == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(46))}); err != nil {
		t.Error(err)
	}
}

// Property: SortBy produces a permutation in non-decreasing key order.
func TestSortByPermutationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		vals := make([]float64, n)
		var sum float64
		for i := range vals {
			vals[i] = math.Floor(r.Float64() * 20)
			sum += vals[i]
		}
		f := New()
		if err := f.AddFloats("v", vals); err != nil {
			return false
		}
		sorted, err := f.SortBy("v")
		if err != nil {
			return false
		}
		got, _ := sorted.Floats("v")
		var sum2, prev float64
		prev = math.Inf(-1)
		for _, v := range got {
			if v < prev {
				return false
			}
			prev = v
			sum2 += v
		}
		return math.Abs(sum-sum2) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(46))}); err != nil {
		t.Error(err)
	}
}

func TestTake(t *testing.T) {
	f := demo(t)
	out, err := f.Take([]int{4, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 || out.NumCols() != f.NumCols() {
		t.Fatalf("shape = %dx%d", out.NumRows(), out.NumCols())
	}
	mfr, err := out.StringsCol("mfr")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Bosch", "Waymo", "Waymo"}
	for i := range want {
		if mfr[i] != want[i] {
			t.Fatalf("mfr = %v, want %v", mfr, want)
		}
	}
	miles, err := out.Floats("miles")
	if err != nil {
		t.Fatal(err)
	}
	if miles[0] != 10 || miles[1] != 100 || miles[2] != 100 {
		t.Errorf("miles = %v", miles)
	}

	// Take copies: mutating the projection leaves the source intact.
	miles[0] = -1
	orig, _ := f.Floats("miles")
	if orig[4] != 10 {
		t.Errorf("Take aliased the source column: %v", orig)
	}

	// Empty selection keeps the schema with zero rows.
	empty, err := f.Take(nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumRows() != 0 || empty.NumCols() != f.NumCols() {
		t.Errorf("empty take shape = %dx%d", empty.NumRows(), empty.NumCols())
	}

	for _, bad := range [][]int{{-1}, {5}, {0, 99}} {
		if _, err := f.Take(bad); err == nil {
			t.Errorf("Take(%v): want out-of-range error", bad)
		}
	}
}

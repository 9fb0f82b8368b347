package report

import (
	"strings"
	"testing"

	"avfda/internal/core"
	"avfda/internal/stats"
	"avfda/internal/synth"
)

func testDB(t *testing.T) *core.DB {
	t.Helper()
	tr, err := synth.Generate(synth.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.BuildWithTags(&tr.Corpus, tr.Tags)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
		Aligns:  []Align{Left, Right},
		Notes:   []string{"a note"},
	}
	tab.AddRow("alpha", 12)
	tab.AddRow("much-longer-name", 3.5)
	out := tab.Render()
	for _, want := range []string{"demo", "| name", "| alpha", "much-longer-name", "note: a note", "+--"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// Right alignment pads numbers on the left.
	if !strings.Contains(out, "   12 |") && !strings.Contains(out, " 12 |") {
		t.Errorf("right-aligned cell missing:\n%s", out)
	}
}

func TestDashHelpers(t *testing.T) {
	if Dash(-1, "%.2f") != "-" || Dash(1.5, "%.1f") != "1.5" {
		t.Error("Dash wrong")
	}
	if DashInt(-1) != "-" || DashInt(7) != "7" {
		t.Error("DashInt wrong")
	}
}

func TestBoxChartRender(t *testing.T) {
	box, err := stats.BoxPlot([]float64{0.001, 0.01, 0.02, 0.05, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	c := BoxChart{
		Title:    "boxes",
		Rows:     []BoxRow{{Label: "A", Box: box}, {Label: "BB", Box: box}},
		LogScale: true,
		Unit:     "DPM",
	}
	out := c.Render()
	if !strings.Contains(out, "boxes") || !strings.Contains(out, "M") ||
		!strings.Contains(out, "=") || !strings.Contains(out, "log10") {
		t.Errorf("box chart incomplete:\n%s", out)
	}
	empty := BoxChart{Title: "none"}
	if !strings.Contains(empty.Render(), "(no data)") {
		t.Error("empty box chart should say so")
	}
}

func TestScatterChartRender(t *testing.T) {
	c := ScatterChart{
		Title:  "scatter",
		XLabel: "x", YLabel: "y",
		LogX: true, LogY: true,
		Series: []Series{
			{Label: "s1", Xs: []float64{1, 10, 100}, Ys: []float64{1, 10, 100}},
			{Label: "s2", Xs: []float64{1, 10, 100}, Ys: []float64{100, 10, 1}},
		},
	}
	out := c.Render()
	for _, want := range []string{"scatter", "legend:", "s1", "s2", "[log10]"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter missing %q", want)
		}
	}
	// Non-positive points in log space are dropped, not fatal.
	c.Series[0].Xs = append(c.Series[0].Xs, -5)
	c.Series[0].Ys = append(c.Series[0].Ys, 3)
	_ = c.Render()
	empty := ScatterChart{Title: "none"}
	if !strings.Contains(empty.Render(), "(no data)") {
		t.Error("empty scatter should say so")
	}
}

func TestHistogramChartRender(t *testing.T) {
	hist, err := stats.NewHistogram([]float64{1, 1, 2, 2, 2, 3, 4, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fit := stats.Exponential{Lambda: 0.4}
	c := HistogramChart{Title: "hist", Hist: hist, PDF: fit.PDF}
	out := c.Render()
	if !strings.Contains(out, "#") || !strings.Contains(out, "fitted PDF") {
		t.Errorf("histogram incomplete:\n%s", out)
	}
	if !strings.Contains((&HistogramChart{Title: "x"}).Render(), "(no data)") {
		t.Error("empty histogram should say so")
	}
}

func TestStackedBarRender(t *testing.T) {
	c := StackedBar{
		Title: "stack",
		Rows: []StackedRow{
			{Label: "m1", Parts: []StackedPart{{"aa", 0.5}, {"bb", 0.5}}},
			{Label: "m2", Parts: []StackedPart{{"bb", 1.0}}},
		},
	}
	out := c.Render()
	if !strings.Contains(out, "legend: A=aa B=bb") {
		t.Errorf("stacked legend wrong:\n%s", out)
	}
	if !strings.Contains(out, "AAA") || !strings.Contains(out, "BBB") {
		t.Errorf("stacked bars missing:\n%s", out)
	}
}

func TestPaperTables(t *testing.T) {
	db := testDB(t)
	t1 := TableI(db)
	for _, want := range []string{"Table I", "Waymo", "635868.00", "123"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	t3 := TableIII()
	if !strings.Contains(t3, "Watchdog timer error") || !strings.Contains(t3, "ML/Design") {
		t.Error("Table III incomplete")
	}
	t4 := TableIV(db)
	if !strings.Contains(t4, "overall: perception") {
		t.Error("Table IV missing overall note")
	}
	t5 := TableV(db)
	if !strings.Contains(t5, "Bosch") || !strings.Contains(t5, "100.00") {
		t.Error("Table V incomplete")
	}
	t6 := TableVI(db)
	if !strings.Contains(t6, "Uber ATC") {
		t.Error("Table VI should include Uber")
	}
	t7, err := TableVII(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t7, "human APM") || !strings.Contains(t7, "Nissan rel-to-human") {
		t.Error("Table VII notes incomplete")
	}
	t8, err := TableVIII(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t8, "vs airline") {
		t.Error("Table VIII incomplete")
	}
	t2 := TableII([]TableIIRow{{
		Manufacturer: "Nissan",
		RawLog:       strings.Repeat("Software module froze and the driver resumed control ", 3),
		Category:     "System", Tag: "Software",
	}})
	if !strings.Contains(t2, "...") {
		t.Error("Table II should truncate long logs")
	}
}

func TestPaperFigures(t *testing.T) {
	db := testDB(t)
	if out := Figure4(db); !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Waymo") {
		t.Error("Figure 4 incomplete")
	}
	out, err := Figure5(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "linear fits") {
		t.Error("Figure 5 missing fits")
	}
	if out := Figure6(db); !strings.Contains(out, "legend:") {
		t.Error("Figure 6 missing legend")
	}
	if out := Figure7(db); !strings.Contains(out, "2014") || !strings.Contains(out, "2016") {
		t.Error("Figure 7 missing years")
	}
	out, err = Figure8(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "paper:") || !strings.Contains(out, "measured:") {
		t.Error("Figure 8 missing comparison")
	}
	out, err = Figure9(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trend slopes") {
		t.Error("Figure 9 missing slopes")
	}
	out, err = Figure10(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mean reaction") {
		t.Error("Figure 10 missing mean")
	}
	out, err = Figure11(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Weibull") || !strings.Contains(out, "exponentiated-Weibull") {
		t.Error("Figure 11 incomplete")
	}
	out, err = Figure12(db)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "relative speed < 10 mph") {
		t.Error("Figure 12 missing headline")
	}
}

func TestSVGOutputs(t *testing.T) {
	db := testDB(t)
	// Scatter SVG.
	sc := &ScatterChart{
		Title: "t", XLabel: "x", YLabel: "y", LogX: true, LogY: true,
		Series: []Series{{Label: "a", Xs: []float64{1, 10}, Ys: []float64{2, 20}}},
	}
	svg := SVGScatter(sc, map[string][2]float64{"a": {1, 0}})
	for _, want := range []string{"<svg", "</svg>", "circle", "line"} {
		if !strings.Contains(svg, want) {
			t.Errorf("scatter SVG missing %q", want)
		}
	}
	// Box SVG from real data.
	var rows []BoxRow
	for _, d := range db.DPMPerCar() {
		rows = append(rows, BoxRow{Label: string(d.Manufacturer), Box: d.Box})
	}
	bsvg := SVGBoxChart(&BoxChart{Title: "b", Rows: rows, LogScale: true})
	if !strings.Contains(bsvg, "rect") || !strings.Contains(bsvg, "Waymo") {
		t.Error("box SVG incomplete")
	}
	// Histogram SVG.
	hist, err := stats.NewHistogram([]float64{1, 2, 2, 3, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fit := stats.Exponential{Lambda: 0.5}
	hsvg := SVGHistogram(&HistogramChart{Title: "h", Hist: hist, PDF: fit.PDF})
	if !strings.Contains(hsvg, "polyline") {
		t.Error("histogram SVG missing fit line")
	}
	// Empty charts produce valid documents.
	if s := SVGBoxChart(&BoxChart{Title: "e"}); !strings.Contains(s, "</svg>") {
		t.Error("empty box SVG invalid")
	}
	if s := SVGHistogram(&HistogramChart{Title: "e"}); !strings.Contains(s, "</svg>") {
		t.Error("empty histogram SVG invalid")
	}
	if s := SVGScatter(&ScatterChart{Title: "e"}, nil); !strings.Contains(s, "</svg>") {
		t.Error("empty scatter SVG invalid")
	}
	// XML escaping.
	if !strings.Contains(escapeXML(`a<b>&"c"`), "&lt;b&gt;&amp;") {
		t.Error("escapeXML wrong")
	}
}

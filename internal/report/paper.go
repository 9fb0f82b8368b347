package report

import (
	"fmt"
	"strings"

	"avfda/internal/calib"
	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
	"avfda/internal/stats"
)

// Paper-artifact renderers: one function per table/figure of the
// evaluation, each printing measured values side by side with the paper's
// published numbers (from package calib) wherever the paper prints them.

// TableI renders the fleet summary with the paper's values inline.
func TableI(db *core.DB) string { return tableI(db.Exposure()) }

// tableI renders Table I from the study's summary.
func tableI(x *core.Exposure) string {
	t := Table{
		Title:   "Table I — Fleet size, autonomous miles, and failure incidents",
		Headers: []string{"Manufacturer", "Report", "Cars", "Miles", "Diseng.", "Accidents", "paper(miles)", "paper(diseng.)"},
		Aligns:  []Align{Left, Left, Right, Right, Right, Right, Right, Right},
	}
	for _, r := range x.FleetSummary() {
		paper := calib.TableI[r.Manufacturer][r.ReportYear]
		t.AddRow(
			string(r.Manufacturer), r.ReportYear.String(), DashInt(r.Cars),
			fmt.Sprintf("%.2f", r.Miles), r.Disengagements, r.Accidents,
			Dash(paper.Miles, "%.2f"), DashInt(paper.Disengagements),
		)
	}
	t.Notes = append(t.Notes, "dashes mark fields the manufacturer's report omits")
	return t.Render()
}

// TableII renders the sample raw-log classifications (the paper's Table II
// rows run through the live NLP engine).
func TableII(rows []TableIIRow) string {
	t := Table{
		Title:   "Table II — Sample disengagement reports and NLP assignment",
		Headers: []string{"Manufacturer", "Raw log (excerpt)", "Category", "Tag"},
	}
	for _, r := range rows {
		log := r.RawLog
		if len(log) > 58 {
			log = log[:55] + "..."
		}
		t.AddRow(r.Manufacturer, log, r.Category, r.Tag)
	}
	return t.Render()
}

// TableIIRow is one classified sample log.
type TableIIRow struct {
	Manufacturer string
	RawLog       string
	Category     string
	Tag          string
}

// TableIII renders the fault-tag ontology.
func TableIII() string {
	t := Table{
		Title:   "Table III — Fault tags and categories",
		Headers: []string{"Tag", "Category", "Definition"},
	}
	for _, tag := range ontology.AllTags() {
		t.AddRow(tag.String(), ontology.CategoryOf(tag).String(), ontology.Definition(tag))
	}
	return t.Render()
}

// TableIV renders the per-manufacturer category breakdown vs the paper.
func TableIV(db *core.DB) string { return tableIV(db.Exposure()) }

// tableIV renders Table IV from the study's summary.
func tableIV(x *core.Exposure) string {
	t := Table{
		Title: "Table IV — Disengagement root-cause categories (%)",
		Headers: []string{"Manufacturer", "Planner", "Perception", "System", "Unknown-C",
			"paper(Plan)", "paper(Perc)", "paper(Sys)", "paper(Unk)"},
		Aligns: []Align{Left, Right, Right, Right, Right, Right, Right, Right, Right},
	}
	for _, r := range x.CategoryBreakdown() {
		paper, ok := calib.TableIV[r.Manufacturer]
		pp := func(v float64) string {
			if !ok {
				return "-"
			}
			return fmt.Sprintf("%.2f", v)
		}
		t.AddRow(string(r.Manufacturer),
			fmt.Sprintf("%.2f", r.PlannerPct), fmt.Sprintf("%.2f", r.PerceptionPct),
			fmt.Sprintf("%.2f", r.SystemPct), fmt.Sprintf("%.2f", r.UnknownPct),
			pp(paper.PlannerPct), pp(paper.PerceptionPct), pp(paper.SystemPct), pp(paper.UnknownPct))
	}
	s := x.OverallCategoryShares()
	t.Notes = append(t.Notes,
		fmt.Sprintf("overall: perception %.1f%%, planner %.1f%%, system %.1f%%, ML total %.1f%% (paper: ~44/20/33.6/64)",
			100*s.Perception, 100*s.Planner, 100*s.System, 100*s.MLDesign))
	return t.Render()
}

// TableV renders the modality breakdown vs the paper.
func TableV(db *core.DB) string { return tableV(db.Exposure()) }

// tableV renders Table V from the study's summary.
func tableV(x *core.Exposure) string {
	t := Table{
		Title:   "Table V — Disengagement modality (%)",
		Headers: []string{"Manufacturer", "Automatic", "Manual", "Planned", "paper(Auto)", "paper(Man)", "paper(Plan)"},
		Aligns:  []Align{Left, Right, Right, Right, Right, Right, Right},
	}
	for _, r := range x.ModalityBreakdown() {
		paper := calib.TableV[r.Manufacturer]
		t.AddRow(string(r.Manufacturer),
			fmt.Sprintf("%.2f", r.AutomaticPct), fmt.Sprintf("%.2f", r.ManualPct), fmt.Sprintf("%.2f", r.PlannedPct),
			fmt.Sprintf("%.2f", paper.AutomaticPct), fmt.Sprintf("%.2f", paper.ManualPct), fmt.Sprintf("%.2f", paper.PlannedPct))
	}
	return t.Render()
}

// TableVI renders the accident summary vs the paper.
func TableVI(db *core.DB) string { return tableVI(db.Exposure()) }

// tableVI renders Table VI from the study's summary.
func tableVI(x *core.Exposure) string {
	t := Table{
		Title:   "Table VI — Accidents reported by manufacturers",
		Headers: []string{"Manufacturer", "Accidents", "Fraction %", "DPA", "paper(Acc)", "paper(DPA)"},
		Aligns:  []Align{Left, Right, Right, Right, Right, Right},
	}
	for _, r := range x.AccidentSummary() {
		paper := calib.TableVI[r.Manufacturer]
		t.AddRow(string(r.Manufacturer), r.Accidents,
			fmt.Sprintf("%.2f", r.FractionPct), Dash(r.DPA, "%.0f"),
			paper.Accidents, Dash(paper.DPA, "%.0f"))
	}
	return t.Render()
}

// TableVII renders AV-vs-human reliability vs the paper.
func TableVII(db *core.DB) (string, error) { return tableVII(db.Exposure()) }

// tableVII renders Table VII from the study's summary.
func tableVII(x *core.Exposure) (string, error) {
	rows, err := x.ReliabilityVsHuman()
	if err != nil {
		return "", err
	}
	t := Table{
		Title: "Table VII — Reliability of AVs compared to human drivers",
		Headers: []string{"Manufacturer", "Median DPM", "Median APM", "Rel. to human",
			"KP conf.", "paper(DPM)", "paper(rel)"},
		Aligns: []Align{Left, Right, Right, Right, Right, Right, Right},
	}
	for _, r := range rows {
		paper := calib.TableVII[r.Manufacturer]
		t.AddRow(string(r.Manufacturer),
			fmt.Sprintf("%.3g", r.MedianDPM), Dash(r.MedianAPM, "%.3g"),
			Dash(r.RelToHuman, "%.1fx"), Dash(r.EstimateConfidence, "%.3f"),
			Dash(paper.MedianDPM, "%.3g"), Dash(paper.RelToHuman, "%.1fx"))
	}
	t.Notes = append(t.Notes,
		"human APM = 2e-6/mile (NHTSA/FHWA)",
		"paper's Nissan rel-to-human (15.285) is inconsistent with its own APM column (152.85); see calib",
		"KP conf. = Kalra-Paddock confidence the true rate is below 2x the estimate")
	return t.Render(), nil
}

// TableVIII renders the cross-domain comparison vs the paper.
func TableVIII(db *core.DB) (string, error) { return tableVIII(db.Exposure()) }

// tableVIII renders Table VIII from the study's summary.
func tableVIII(x *core.Exposure) (string, error) {
	rows, err := x.CrossDomainTable()
	if err != nil {
		return "", err
	}
	t := Table{
		Title:   "Table VIII — AVs vs other safety-critical autonomous systems",
		Headers: []string{"Manufacturer", "APMi", "vs airline", "vs surgical robot", "paper(vs air)", "paper(vs SR)"},
		Aligns:  []Align{Left, Right, Right, Right, Right, Right},
	}
	for _, r := range rows {
		paper := calib.TableVIII[r.Manufacturer]
		t.AddRow(string(r.Manufacturer),
			fmt.Sprintf("%.3g", r.APMi), fmt.Sprintf("%.2f", r.VsAirline),
			fmt.Sprintf("%.4f", r.VsSurgicalRobot),
			Dash(paper.VsAirline, "%.2f"), Dash(paper.VsSurgicalBot, "%.4f"))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("airline APM %.3g/departure, surgical robot APM %.3g/procedure, mission = %.0f-mile trip",
			calib.AirlineAPM, calib.SurgicalRobotAPM, calib.MedianTripMiles))
	return t.Render(), nil
}

// Figure4 renders the per-car DPM box plots.
func Figure4(db *core.DB) string {
	c := BoxChart{
		Title:    "Figure 4 — Per-car disengagements/mile across manufacturers",
		LogScale: true,
		Unit:     "DPM",
	}
	for _, d := range db.DPMPerCar() {
		c.Rows = append(c.Rows, BoxRow{Label: string(d.Manufacturer), Box: d.Box})
	}
	return c.Render()
}

// Figure5 renders cumulative disengagements vs cumulative miles (log-log).
func Figure5(db *core.DB) (string, error) {
	series, err := db.CumulativeDisengagements()
	if err != nil {
		return "", err
	}
	c := ScatterChart{
		Title:  "Figure 5 — Cumulative disengagements vs cumulative miles (log-log)",
		XLabel: "cumulative miles",
		YLabel: "cumulative disengagements",
		LogX:   true,
		LogY:   true,
	}
	var fits strings.Builder
	for _, s := range series {
		sc := Series{Label: string(s.Manufacturer)}
		for _, p := range s.Points {
			sc.Xs = append(sc.Xs, p.Miles)
			sc.Ys = append(sc.Ys, p.Disengagements)
		}
		c.Series = append(c.Series, sc)
		fmt.Fprintf(&fits, "  %-14s fit: logD = %.3f + %.3f*logM (R2 %.3f)\n",
			s.Manufacturer, s.Fit.Intercept, s.Fit.Slope, s.Fit.R2)
	}
	return c.Render() + "linear fits in log-log space:\n" + fits.String(), nil
}

// Figure6 renders the fault-tag fraction stacks.
func Figure6(db *core.DB) string {
	c := StackedBar{Title: "Figure 6 — Fault tags behind disengagements (fraction per manufacturer)"}
	for _, r := range db.TagBreakdown() {
		row := StackedRow{Label: string(r.Manufacturer)}
		for _, tag := range ontology.AllTags() {
			if f := r.Fractions[tag]; f > 0 {
				row.Parts = append(row.Parts, StackedPart{Name: tag.String(), Fraction: f})
			}
		}
		c.Rows = append(c.Rows, row)
	}
	return c.Render()
}

// Figure7 renders the year-by-year DPM evolution.
func Figure7(db *core.DB) string {
	c := BoxChart{
		Title:    "Figure 7 — Per-car DPM by calendar year",
		LogScale: true,
		Unit:     "DPM",
	}
	for _, r := range db.DPMByYear() {
		c.Rows = append(c.Rows, BoxRow{
			Label: fmt.Sprintf("%s %d", r.Manufacturer, r.Year),
			Box:   r.Box,
		})
	}
	return c.Render()
}

// Figure8 renders the pooled log-log correlation.
func Figure8(db *core.DB) (string, error) {
	lc, err := db.PooledLogCorrelation()
	if err != nil {
		return "", err
	}
	return fmt.Sprintf(
		"Figure 8 — log(DPM) vs log(cumulative miles), pooled per-car-month\n"+
			"  measured: pearson r = %.3f (p = %.3g) over %d points\n"+
			"  paper:    pearson r = %.2f (p = %.0g)\n",
		lc.R, lc.P, lc.Points, calib.Fig8PearsonR, calib.Fig8PearsonP), nil
}

// Figure9 renders per-manufacturer DPM trend fits.
func Figure9(db *core.DB) (string, error) {
	series, err := db.DPMTrend()
	if err != nil {
		return "", err
	}
	c := ScatterChart{
		Title:  "Figure 9 — Monthly DPM vs cumulative miles (log-log)",
		XLabel: "cumulative miles",
		YLabel: "DPM",
		LogX:   true,
		LogY:   true,
	}
	var fits strings.Builder
	for _, s := range series {
		c.Series = append(c.Series, Series{Label: string(s.Manufacturer), Xs: s.CumMiles, Ys: s.DPM})
		if s.FitOK {
			fmt.Fprintf(&fits, "  %-14s slope %.3f (R2 %.3f)\n", s.Manufacturer, s.Fit.Slope, s.Fit.R2)
		}
	}
	return c.Render() + "trend slopes (negative = improving):\n" + fits.String(), nil
}

// Figure10 renders the reaction-time box plots.
func Figure10(db *core.DB) (string, error) {
	c := BoxChart{
		Title:    "Figure 10 — Driver reaction times per manufacturer",
		LogScale: true,
		Unit:     "seconds",
	}
	for _, r := range db.ReactionTimes() {
		c.Rows = append(c.Rows, BoxRow{Label: string(r.Manufacturer), Box: r.Box})
	}
	mean, err := db.MeanReaction(3600)
	if err != nil {
		return "", err
	}
	return c.Render() + fmt.Sprintf(
		"mean reaction %.2f s (paper: %.2f s); non-AV reference %.2f s\n",
		mean, calib.MeanReactionSeconds, calib.NonAVReaction), nil
}

// Figure11 renders the Weibull reaction-time fits for Mercedes-Benz and
// Waymo with histogram overlays.
func Figure11(db *core.DB) (string, error) {
	var sb strings.Builder
	for _, m := range []schema.Manufacturer{schema.MercedesBenz, schema.Waymo} {
		fit, err := db.FitReactionWeibull(m, 3600)
		if err != nil {
			return "", err
		}
		var vals []float64
		for _, r := range db.ReactionTimes() {
			if r.Manufacturer == m {
				for _, v := range r.Values {
					if v < 3600 {
						vals = append(vals, v)
					}
				}
			}
		}
		hist, err := stats.NewHistogram(vals, 0)
		if err != nil {
			return "", err
		}
		hc := HistogramChart{
			Title: fmt.Sprintf("Figure 11 — %s reaction times: Weibull(k=%.2f, λ=%.2f), KS=%.3f, n=%d",
				m, fit.Weibull.K, fit.Weibull.Lambda, fit.KS, fit.N),
			Hist: hist,
			PDF:  fit.Weibull.PDF,
		}
		sb.WriteString(hc.Render())
	}
	pooled, n, err := db.PooledReactionFit(3600)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "pooled exponentiated-Weibull fit: k=%.2f λ=%.2f α=%.2f (n=%d)\n",
		pooled.K, pooled.Lambda, pooled.Alpha, n)
	return sb.String(), nil
}

// Figure12 renders the accident speed distributions with exponential fits.
func Figure12(db *core.DB) (string, error) {
	samples, err := db.AccidentSpeeds()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, s := range samples {
		hist, err := stats.NewHistogram(s.Values, 8)
		if err != nil {
			return "", err
		}
		hc := HistogramChart{
			Title: fmt.Sprintf("Figure 12 — %s (mph): Exponential(mean %.1f), KS=%.3f, n=%d",
				s.Label, 1/s.Fit.Lambda, s.KS, len(s.Values)),
			Hist: hist,
			PDF:  s.Fit.PDF,
		}
		sb.WriteString(hc.Render())
	}
	fmt.Fprintf(&sb, "relative speed < 10 mph in %.0f%% of collisions (paper: >80%%)\n",
		100*db.RelativeSpeedUnder(10))
	return sb.String(), nil
}

// Package scandoc renders a normalized corpus into the document form the
// pipeline ingests: per-manufacturer annual disengagement reports (with the
// schema fragmentation the paper describes — each vendor family uses its
// own layout) and per-incident accident reports (OL 316 style).
//
// Rendered documents are line-oriented page grids; package ocr then decodes
// them with a configurable noise model, reproducing the paper's Stage I→II
// digitization path.
package scandoc

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"avfda/internal/schema"
)

// DocKind distinguishes the document classes in the DMV releases.
type DocKind int

// Document kinds.
const (
	DisengagementReport DocKind = iota + 1
	AccidentReport
)

// String implements fmt.Stringer.
func (k DocKind) String() string {
	switch k {
	case DisengagementReport:
		return "disengagement-report"
	case AccidentReport:
		return "accident-report"
	default:
		return fmt.Sprintf("DocKind(%d)", int(k))
	}
}

// Format identifies a vendor's report layout family.
type Format int

// Layout families. The real corpus is fragmented across vendor-specific
// formats; we model the three families the data exhibits.
const (
	// FormatTabular is a pipe-separated table (Mercedes-Benz, Bosch,
	// Volkswagen, GM Cruise).
	FormatTabular Format = iota + 1
	// FormatLogLine is em-dash-separated log lines (Nissan, Delphi,
	// Tesla, Ford, BMW), as in the paper's Table II.
	FormatLogLine
	// FormatMonthly is Waymo's month-granular narrative style.
	FormatMonthly
)

// FormatFor returns the layout family a manufacturer files in.
func FormatFor(m schema.Manufacturer) Format {
	switch m {
	case schema.MercedesBenz, schema.Bosch, schema.Volkswagen, schema.GMCruise:
		return FormatTabular
	case schema.Waymo:
		return FormatMonthly
	default:
		return FormatLogLine
	}
}

// Page is one page of a scanned document: a slice of text lines.
type Page struct {
	Lines []string
	// Handwritten pages OCR worse (accident narratives are handwritten
	// in the real corpus).
	Handwritten bool
}

// Document is one logical report.
type Document struct {
	ID           string
	Kind         DocKind
	Manufacturer schema.Manufacturer
	ReportYear   schema.ReportYear
	Pages        []Page
}

// Lines flattens all pages into a single line slice.
func (d *Document) Lines() []string {
	var out []string
	for _, p := range d.Pages {
		out = append(out, p.Lines...)
	}
	return out
}

const linesPerPage = 56

// paginate splits lines into pages. Each page's lines are a capped window
// of lines, so an append to one page cannot write into the next.
func paginate(lines []string, handwritten bool) []Page {
	pages := make([]Page, 0, (len(lines)+linesPerPage-1)/linesPerPage)
	for start := 0; start < len(lines); start += linesPerPage {
		end := min(start+linesPerPage, len(lines))
		pages = append(pages, Page{Lines: lines[start:end:end], Handwritten: handwritten})
	}
	if len(pages) == 0 {
		pages = []Page{{Handwritten: handwritten}}
	}
	return pages
}

// Render converts a corpus into the full document set: one disengagement
// report per manufacturer-year (with its mileage table) and one accident
// report per collision.
func Render(c *schema.Corpus) []Document {
	// Group fleet/mileage/events per manufacturer-year, preserving corpus
	// order. Rows are grouped by index, not copied.
	type key struct {
		m schema.Manufacturer
		y schema.ReportYear
	}
	var order []key
	seen := make(map[key]bool)
	note := func(k key) {
		if !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	fleets := make(map[key]schema.Fleet)
	for _, f := range c.Fleets {
		k := key{f.Manufacturer, f.ReportYear}
		note(k)
		fleets[k] = f
	}
	mileage := make(map[key][]int)
	for i := range c.Mileage {
		m := &c.Mileage[i]
		k := key{m.Manufacturer, m.ReportYear}
		note(k)
		mileage[k] = append(mileage[k], i)
	}
	events := make(map[key][]int)
	for i := range c.Disengagements {
		d := &c.Disengagements[i]
		k := key{d.Manufacturer, d.ReportYear}
		note(k)
		events[k] = append(events[k], i)
	}

	docs := make([]Document, 0, len(order)+len(c.Accidents))
	for _, k := range order {
		if len(mileage[k]) == 0 && len(events[k]) == 0 {
			// Accident-only vendors file no disengagement report.
			if f, ok := fleets[k]; !ok || f.Cars <= 0 {
				continue
			}
		}
		docs = append(docs, renderDisengagementReport(
			c, k.m, k.y, fleets[k], mileage[k], events[k]))
	}

	for i, a := range c.Accidents {
		docs = append(docs, renderAccidentReport(i, a))
	}
	return docs
}

// renderDisengagementReport builds one manufacturer-year report document
// from the corpus rows at the indexes miles and events.
func renderDisengagementReport(c *schema.Corpus, m schema.Manufacturer, y schema.ReportYear,
	fleet schema.Fleet, miles, events []int,
) Document {
	lines := make([]string, 0, 10+len(miles)+len(events))
	lines = append(lines,
		"CALIFORNIA DMV ANNUAL REPORT OF AUTONOMOUS VEHICLE DISENGAGEMENTS",
		"Manufacturer: "+string(m),
		"Reporting Period: "+y.String(),
		"Fleet Size: "+fleetSize(fleet),
		"",
		"SECTION 1: AUTONOMOUS MILES BY VEHICLE AND MONTH",
		"VEHICLE | MONTH | MILES",
	)
	for _, i := range miles {
		lines = append(lines, renderMileageRow(c.Mileage[i]))
	}
	lines = append(lines, "",
		"SECTION 2: DISENGAGEMENT EVENTS ("+strconv.Itoa(len(events))+" TOTAL)")
	switch FormatFor(m) {
	case FormatTabular:
		lines = append(lines, "DATE TIME | VEHICLE | MODE | ROAD | WEATHER | REACTION | CAUSE")
		for _, i := range events {
			lines = append(lines, renderTabularEvent(c.Disengagements[i]))
		}
	case FormatMonthly:
		for _, i := range events {
			lines = append(lines, renderMonthlyEvent(c.Disengagements[i]))
		}
	default:
		for _, i := range events {
			lines = append(lines, renderLogLineEvent(c.Disengagements[i]))
		}
	}
	return Document{
		ID:           fmt.Sprintf("disengagements-%s-%d", sanitize(string(m)), int(y)),
		Kind:         DisengagementReport,
		Manufacturer: m,
		ReportYear:   y,
		Pages:        paginate(lines, false),
	}
}

// fleetSize renders the fleet-size field, preserving the Table I dashes.
func fleetSize(f schema.Fleet) string {
	if f.Cars < 0 {
		return "-"
	}
	return strconv.Itoa(f.Cars)
}

// Row renderers build each line in one sized strings.Builder, not through
// fmt, which would box every field: rows are the bulk of every report.
// The layouts are fixed; package parse depends on them.
const (
	dateTimeLayout = "2006-01-02 15:04:05"
	pipeSep        = " | "
	dashSep        = " — "
	// rowSlack covers a row's fixed-width fields and separators, so the
	// initial Grow also fits the variable ones it adds to it.
	rowSlack = 96
)

// renderMileageRow renders "VEHICLE | MONTH | MILES".
func renderMileageRow(mm schema.MonthlyMileage) string {
	var sb strings.Builder
	sb.Grow(rowSlack + len(mm.Vehicle))
	sb.WriteString(string(mm.Vehicle))
	sb.WriteString(pipeSep)
	writeTime(&sb, mm.Month, "2006-01")
	sb.WriteString(pipeSep)
	writeFloat(&sb, mm.Miles, 2)
	return sb.String()
}

// renderTabularEvent renders the pipe-table family row.
func renderTabularEvent(e schema.Disengagement) string {
	var sb strings.Builder
	sb.Grow(rowSlack + len(e.Vehicle) + len(e.Cause))
	writeTime(&sb, e.Time, dateTimeLayout)
	sb.WriteString(pipeSep)
	sb.WriteString(orDash(string(e.Vehicle)))
	sb.WriteString(pipeSep)
	sb.WriteString(e.Modality.String())
	sb.WriteString(pipeSep)
	sb.WriteString(e.Road.String())
	sb.WriteString(pipeSep)
	sb.WriteString(e.Weather.String())
	sb.WriteString(pipeSep)
	writeReaction(&sb, e)
	sb.WriteString(pipeSep)
	sb.WriteString(e.Cause)
	return sb.String()
}

// renderLogLineEvent renders the em-dash log family row (Table II style).
func renderLogLineEvent(e schema.Disengagement) string {
	var sb strings.Builder
	sb.Grow(rowSlack + len(e.Vehicle) + len(e.Cause))
	writeTime(&sb, e.Time, "1/2/06")
	sb.WriteString(dashSep)
	writeTime(&sb, e.Time, "3:04:05 PM")
	sb.WriteString(dashSep)
	sb.WriteString(orDash(string(e.Vehicle)))
	sb.WriteString(dashSep)
	sb.WriteString(e.Cause)
	sb.WriteString(dashSep)
	sb.WriteString(e.Road.String())
	sb.WriteString(dashSep)
	sb.WriteString(e.Weather.String())
	sb.WriteString(dashSep)
	writeReaction(&sb, e)
	sb.WriteString(dashSep)
	// Modality names are ASCII, so folding bytes matches strings.ToLower.
	for _, c := range []byte(e.Modality.String()) {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// renderMonthlyEvent renders Waymo's month-granular style.
func renderMonthlyEvent(e schema.Disengagement) string {
	var sb strings.Builder
	sb.Grow(rowSlack + len(e.Vehicle) + len(e.Cause))
	writeTime(&sb, e.Time, "Jan-06")
	sb.WriteString(dashSep)
	sb.WriteString(orDash(string(e.Vehicle)))
	sb.WriteString(dashSep)
	sb.WriteString(e.Road.String())
	sb.WriteString(dashSep)
	sb.WriteString(e.Modality.String())
	sb.WriteString(dashSep)
	sb.WriteString(e.Cause)
	sb.WriteString(dashSep)
	writeReaction(&sb, e)
	sb.WriteString(dashSep)
	writeTime(&sb, e.Time, dateTimeLayout)
	return sb.String()
}

// writeReaction writes the driver reaction time as "0.833 s", or "-" when
// unreported.
func writeReaction(sb *strings.Builder, e schema.Disengagement) {
	if !e.HasReaction() {
		sb.WriteByte('-')
		return
	}
	writeFloat(sb, e.ReactionSeconds, 3)
	sb.WriteString(" s")
}

// writeTime writes t in layout, through a stack buffer.
func writeTime(sb *strings.Builder, t time.Time, layout string) {
	var buf [32]byte
	sb.Write(t.AppendFormat(buf[:0], layout))
}

// writeFloat writes v with prec decimals, as fmt's %.<prec>f does.
func writeFloat(sb *strings.Builder, v float64, prec int) {
	var buf [32]byte
	sb.Write(appendFloat(buf[:0], v, prec))
}

// appendFloat appends v with prec decimals: the bytes of
// strconv.AppendFloat(dst, v, 'f', prec, 64). strconv rounds a fixed
// precision through its slow multiprecision path. For prec up to 3 and
// |v| < 2^52, v is mant·2^exp with a 53-bit mant and exp < 0, and
// mant·10^prec fits in a uint64, so v·10^prec rounded half to even, as
// strconv rounds the exact value, is one shift and one compare.
func appendFloat(dst []byte, v float64, prec int) []byte {
	bits := math.Float64bits(v)
	biased := int(bits >> 52 & 0x7ff)
	if prec < 0 || prec >= len(pow10) || biased >= 1023+52 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	mant, exp := bits&(1<<52-1), -1074
	if biased != 0 {
		mant, exp = mant|1<<52, biased-1075
	}
	n, shift := mant*pow10[prec], uint(-exp)
	var q uint64
	if shift < 64 {
		q = n >> shift
		rest, half := n&(1<<shift-1), uint64(1)<<(shift-1)
		if rest > half || rest == half && q&1 == 1 {
			q++
		}
	}
	if bits>>63 != 0 {
		dst = append(dst, '-')
	}
	dst = strconv.AppendUint(dst, q/pow10[prec], 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := q % pow10[prec]
	for d := pow10[prec] / 10; d > 0; d /= 10 {
		dst = append(dst, byte('0'+frac/d%10))
	}
	return dst
}

// pow10 holds the powers of ten appendFloat scales by.
var pow10 = [...]uint64{1, 10, 100, 1000}

// orDash substitutes "-" for empty strings.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// renderAccidentReport builds one OL 316-style accident document. The
// narrative section is flagged handwritten, which the OCR model degrades
// more aggressively.
func renderAccidentReport(idx int, a schema.Accident) Document {
	head := []string{
		"REPORT OF TRAFFIC COLLISION INVOLVING AN AUTONOMOUS VEHICLE (OL 316)",
		"Manufacturer: " + string(a.Manufacturer),
		"Reporting Period: " + a.ReportYear.String(),
		"Date/Time: " + a.Time.Format("2006-01-02 15:04"),
		"Vehicle: " + redactable(a),
		"Location: " + a.Location,
		"AV Speed (mph): " + speedField(a.AVSpeedMPH),
		"Other Vehicle Speed (mph): " + speedField(a.OtherSpeedMPH),
		"Autonomous Mode: " + yesNo(a.InAutonomousMode),
		"",
		"NARRATIVE:",
	}
	narrative := wrapText(a.Narrative, 90)
	return Document{
		ID:           fmt.Sprintf("accident-%03d-%s", idx+1, sanitize(string(a.Manufacturer))),
		Kind:         AccidentReport,
		Manufacturer: a.Manufacturer,
		ReportYear:   a.ReportYear,
		Pages: append(paginate(head, false),
			paginate(narrative, true)...),
	}
}

// redactable renders the vehicle field, with DMV-style redaction.
func redactable(a schema.Accident) string {
	if a.Redacted || a.Vehicle == "" {
		return "[REDACTED]"
	}
	return string(a.Vehicle)
}

// speedField renders a speed, "-" when unknown.
func speedField(v float64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// yesNo renders a boolean form field.
func yesNo(b bool) string {
	if b {
		return "YES"
	}
	return "NO"
}

// wrapText greedily wraps s at width columns.
func wrapText(s string, width int) []string {
	words := strings.Fields(s)
	var lines []string
	var cur strings.Builder
	for _, w := range words {
		if cur.Len() > 0 && cur.Len()+1+len(w) > width {
			lines = append(lines, cur.String())
			cur.Reset()
		}
		if cur.Len() > 0 {
			cur.WriteByte(' ')
		}
		cur.WriteString(w)
	}
	if cur.Len() > 0 {
		lines = append(lines, cur.String())
	}
	return lines
}

// sanitize converts a name into an id-safe token.
func sanitize(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, s)
}

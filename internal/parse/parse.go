// Package parse implements Stage II of the paper's pipeline: converting
// OCR-decoded report text — fragmented across vendor-specific layouts —
// into the uniform schema the analysis stages consume.
//
// Parsing is defect-tracking rather than fail-fast: rows damaged by OCR
// noise (dropped separators, merged lines, substituted digits) are recorded
// as Defects and excluded, never silently dropped, so the noise ablation
// can measure exactly what the digitization step costs.
package parse

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"avfda/internal/scandoc"
	"avfda/internal/schema"
)

// Input is one OCR-decoded document.
type Input struct {
	DocID string
	Lines []string
}

// Defect records one unparseable row or field.
type Defect struct {
	DocID  string
	Line   int // zero-based index into the document's lines
	Reason string
}

// Report summarizes a parse run.
type Report struct {
	Documents   int
	RowsParsed  int
	Defects     []Defect
	SkippedDocs int // documents whose headers could not be interpreted
}

// DefectRate returns defects / (defects + parsed rows).
func (r *Report) DefectRate() float64 {
	total := r.RowsParsed + len(r.Defects)
	if total == 0 {
		return 0
	}
	return float64(len(r.Defects)) / float64(total)
}

// Parse converts the document set into a normalized corpus.
func Parse(inputs []Input) (*schema.Corpus, *Report, error) {
	return ParseConcurrent(inputs, 1)
}

// ParseConcurrent parses the document set with a bounded worker pool.
// Documents are independent (vehicle-ID canonicalization is scoped to one
// report), so each worker parses into a private corpus/report fragment and
// the fragments are merged in input order: output is byte-identical to
// Parse for any worker count. Workers <= 0 selects GOMAXPROCS.
func ParseConcurrent(inputs []Input, workers int) (*schema.Corpus, *Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(inputs) {
		workers = len(inputs)
	}
	corpora := make([]*schema.Corpus, len(inputs))
	reports := make([]*Report, len(inputs))
	if workers <= 1 {
		for i := range inputs {
			corpora[i], reports[i] = parseDocument(inputs[i])
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					corpora[i], reports[i] = parseDocument(inputs[i])
				}
			}()
		}
		for i := range inputs {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	var nFl, nMl, nDis, nAcc, nDef int
	for i := range inputs {
		nFl += len(corpora[i].Fleets)
		nMl += len(corpora[i].Mileage)
		nDis += len(corpora[i].Disengagements)
		nAcc += len(corpora[i].Accidents)
		nDef += len(reports[i].Defects)
	}
	// slices.Grow leaves a nil slice nil when there is nothing to add.
	corpus := &schema.Corpus{
		Fleets:         slices.Grow([]schema.Fleet(nil), nFl),
		Mileage:        slices.Grow([]schema.MonthlyMileage(nil), nMl),
		Disengagements: slices.Grow([]schema.Disengagement(nil), nDis),
		Accidents:      slices.Grow([]schema.Accident(nil), nAcc),
	}
	rep := &Report{Documents: len(inputs), Defects: slices.Grow([]Defect(nil), nDef)}
	for i := range inputs {
		corpus.Fleets = append(corpus.Fleets, corpora[i].Fleets...)
		corpus.Mileage = append(corpus.Mileage, corpora[i].Mileage...)
		corpus.Disengagements = append(corpus.Disengagements, corpora[i].Disengagements...)
		corpus.Accidents = append(corpus.Accidents, corpora[i].Accidents...)
		rep.RowsParsed += reports[i].RowsParsed
		rep.SkippedDocs += reports[i].SkippedDocs
		rep.Defects = append(rep.Defects, reports[i].Defects...)
	}
	return corpus, rep, nil
}

// parseDocument parses one document into its own corpus/report fragment.
func parseDocument(in Input) (*schema.Corpus, *Report) {
	corpus := &schema.Corpus{}
	rep := &Report{}
	if len(in.Lines) == 0 {
		rep.SkippedDocs++
		rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Reason: "empty document"})
		return corpus, rep
	}
	switch sniffKind(in.Lines[0]) {
	case scandoc.DisengagementReport:
		parseDisengagementDoc(in, corpus, rep)
	case scandoc.AccidentReport:
		parseAccidentDoc(in, corpus, rep)
	default:
		rep.SkippedDocs++
		rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Reason: "unrecognized document title"})
	}
	return corpus, rep
}

// sniffKind identifies the document class from its title line, tolerating
// OCR damage via fuzzy matching.
func sniffKind(title string) scandoc.DocKind {
	// Upper-casing first folds ı and ſ to I and S, which lower to the
	// needles' i and s.
	t := strings.ToLower(strings.ToUpper(title))
	if fuzzyContains(t, "disengagement") {
		return scandoc.DisengagementReport
	}
	if fuzzyContains(t, "collision") || fuzzyContains(t, "ol 316") {
		return scandoc.AccidentReport
	}
	return 0
}

// parseDisengagementDoc handles one manufacturer-year report.
func parseDisengagementDoc(in Input, corpus *schema.Corpus, rep *Report) {
	hdr, bodyStart, ok := parseHeader(in, rep)
	if !ok {
		rep.SkippedDocs++
		return
	}
	corpus.Fleets = append(corpus.Fleets, schema.Fleet{
		Manufacturer: hdr.mfr,
		ReportYear:   hdr.year,
		Cars:         hdr.cars,
	})

	format := scandoc.FormatFor(hdr.mfr)
	vehicles := newVehicleRegistry()
	section := 0
	for i := bodyStart; i < len(in.Lines); i++ {
		line := strings.TrimSpace(in.Lines[i])
		if line == "" {
			continue
		}
		switch classifyLine(line) {
		case lineMilesMarker:
			section = 1
			continue
		case lineEventsMarker:
			section = 2
			// Event rows fill the rest of the report.
			corpus.Disengagements = slices.Grow(corpus.Disengagements, len(in.Lines)-i)
			continue
		case lineColumnHeader:
			continue
		}
		switch section {
		case 1:
			if mm, err := parseMileageRow(line, hdr); err != nil {
				rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Line: i, Reason: err.Error()})
			} else {
				mm.Vehicle = vehicles.resolve(mm.Vehicle)
				corpus.Mileage = append(corpus.Mileage, mm)
				rep.RowsParsed++
			}
		case 2:
			if ev, err := parseEventRow(line, hdr, format); err != nil {
				rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Line: i, Reason: err.Error()})
			} else {
				ev.Vehicle = vehicles.resolve(ev.Vehicle)
				corpus.Disengagements = append(corpus.Disengagements, ev)
				rep.RowsParsed++
			}
		}
	}
}

// header carries the parsed document preamble.
type header struct {
	mfr  schema.Manufacturer
	year schema.ReportYear
	cars int
}

// parseHeader extracts manufacturer, reporting period, and fleet size from
// the preamble. It returns the first body line index.
func parseHeader(in Input, rep *Report) (header, int, bool) {
	h := header{cars: -1}
	haveMfr, haveYear := false, false
	// The header runs until the first blank line or section marker; body
	// rows must not be consumed by the field scan.
	end := len(in.Lines)
	for i := 1; i < len(in.Lines); i++ {
		line := strings.TrimSpace(in.Lines[i])
		if k := classifyLine(line); line == "" || k == lineMilesMarker || k == lineEventsMarker {
			end = i
			break
		}
	}
	headerKeys := []string{"Manufacturer", "Reporting Period", "Fleet Size"}
	// Scan from line 0: an OCR merge can glue the title and the first
	// header field into one line.
	for i := 0; i < end; i++ {
		// A line may carry several key:value segments when OCR merged
		// adjacent header lines.
		for _, seg := range splitHeaderSegments(in.Lines[i], headerKeys) {
			switch {
			case fuzzyEqual(seg.key, "Manufacturer"):
				m, ok := resolveManufacturer(seg.val)
				if !ok {
					rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Line: i,
						Reason: fmt.Sprintf("unknown manufacturer %q", seg.val)})
					return h, 0, false
				}
				h.mfr = m
				haveMfr = true
			case fuzzyEqual(seg.key, "Reporting Period"):
				y, err := parsePeriod(seg.val)
				if err != nil {
					rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Line: i, Reason: err.Error()})
					return h, 0, false
				}
				h.year = y
				haveYear = true
			case fuzzyEqual(seg.key, "Fleet Size"):
				if seg.val != "-" {
					if n, err := strconv.Atoi(cleanNumeric(seg.val)); err == nil {
						h.cars = n
					}
				}
			}
		}
	}
	if !haveMfr || !haveYear {
		rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Reason: "incomplete header"})
		return h, 0, false
	}
	return h, end, true
}

// parsePeriod maps "2015-2016" style strings to a ReportYear.
func parsePeriod(val string) (schema.ReportYear, error) {
	v := cleanNumeric(val)
	switch {
	case strings.Contains(v, "2015-2016"), strings.Contains(v, "2015 2016"):
		return schema.Report2016, nil
	case strings.Contains(v, "2016-2017"), strings.Contains(v, "2016 2017"):
		return schema.Report2017, nil
	default:
		return 0, fmt.Errorf("unrecognized reporting period %q", val)
	}
}

// parseMileageRow parses "VEHICLE | MONTH | MILES".
func parseMileageRow(line string, hdr header) (schema.MonthlyMileage, error) {
	var parts [3]string
	if n := splitTrim(parts[:], line, "|"); n != len(parts) {
		return schema.MonthlyMileage{}, fmt.Errorf("mileage row has %d fields, want 3", n)
	}
	month, err := time.Parse("2006-01", cleanNumeric(parts[1]))
	if err != nil {
		return schema.MonthlyMileage{}, fmt.Errorf("mileage month: %v", err)
	}
	miles, err := strconv.ParseFloat(cleanNumeric(parts[2]), 64)
	if err != nil {
		return schema.MonthlyMileage{}, fmt.Errorf("mileage value: %v", err)
	}
	if miles < 0 {
		return schema.MonthlyMileage{}, fmt.Errorf("negative miles %g", miles)
	}
	return schema.MonthlyMileage{
		Manufacturer: hdr.mfr,
		Vehicle:      schema.VehicleID(parts[0]),
		ReportYear:   hdr.year,
		Month:        month,
		Miles:        miles,
	}, nil
}

// parseEventRow dispatches to the vendor layout family.
func parseEventRow(line string, hdr header, f scandoc.Format) (schema.Disengagement, error) {
	switch f {
	case scandoc.FormatTabular:
		return parseTabularEvent(line, hdr)
	case scandoc.FormatMonthly:
		return parseMonthlyEvent(line, hdr)
	default:
		return parseLogLineEvent(line, hdr)
	}
}

// parseTabularEvent parses
// "DATE TIME | VEHICLE | MODE | ROAD | WEATHER | REACTION | CAUSE".
func parseTabularEvent(line string, hdr header) (schema.Disengagement, error) {
	var parts [7]string
	if n := splitTrim(parts[:], line, "|"); n != len(parts) {
		return schema.Disengagement{}, fmt.Errorf("tabular row has %d fields, want 7", n)
	}
	ts, err := time.Parse("2006-01-02 15:04:05", cleanNumeric(parts[0]))
	if err != nil {
		return schema.Disengagement{}, fmt.Errorf("tabular timestamp: %v", err)
	}
	reaction, err := parseReaction(parts[5])
	if err != nil {
		return schema.Disengagement{}, err
	}
	return schema.Disengagement{
		Manufacturer:    hdr.mfr,
		Vehicle:         vehicleOrEmpty(parts[1]),
		ReportYear:      hdr.year,
		Time:            ts,
		Cause:           parts[6],
		Modality:        schema.ParseModality(parts[2]),
		Road:            schema.ParseRoadType(parts[3]),
		Weather:         schema.ParseWeather(parts[4]),
		ReactionSeconds: reaction,
	}, nil
}

// parseLogLineEvent parses the em-dash family:
// "1/4/16 — 1:25:05 PM — VEHICLE — CAUSE — ROAD — WEATHER — REACTION — modality".
func parseLogLineEvent(line string, hdr header) (schema.Disengagement, error) {
	var parts [8]string
	if n := splitTrim(parts[:], line, "—"); n != len(parts) {
		return schema.Disengagement{}, fmt.Errorf("log row has %d fields, want 8", n)
	}
	ts, err := time.Parse("1/2/06 3:04:05 PM", cleanNumeric(parts[0])+" "+strings.ToUpper(cleanNumeric(parts[1])))
	if err != nil {
		return schema.Disengagement{}, fmt.Errorf("log timestamp: %v", err)
	}
	reaction, err := parseReaction(parts[6])
	if err != nil {
		return schema.Disengagement{}, err
	}
	return schema.Disengagement{
		Manufacturer:    hdr.mfr,
		Vehicle:         vehicleOrEmpty(parts[2]),
		ReportYear:      hdr.year,
		Time:            ts,
		Cause:           parts[3],
		Modality:        schema.ParseModality(parts[7]),
		Road:            schema.ParseRoadType(parts[4]),
		Weather:         schema.ParseWeather(parts[5]),
		ReactionSeconds: reaction,
	}, nil
}

// parseMonthlyEvent parses Waymo's style:
// "May-16 — VEHICLE — ROAD — Modality — CAUSE — REACTION — 2016-05-14 10:22:31".
func parseMonthlyEvent(line string, hdr header) (schema.Disengagement, error) {
	var parts [7]string
	if n := splitTrim(parts[:], line, "—"); n != len(parts) {
		return schema.Disengagement{}, fmt.Errorf("monthly row has %d fields, want 7", n)
	}
	ts, err := time.Parse("2006-01-02 15:04:05", cleanNumeric(parts[6]))
	if err != nil {
		return schema.Disengagement{}, fmt.Errorf("monthly timestamp: %v", err)
	}
	reaction, err := parseReaction(parts[5])
	if err != nil {
		return schema.Disengagement{}, err
	}
	return schema.Disengagement{
		Manufacturer:    hdr.mfr,
		Vehicle:         vehicleOrEmpty(parts[1]),
		ReportYear:      hdr.year,
		Time:            ts,
		Cause:           parts[4],
		Modality:        schema.ParseModality(parts[3]),
		Road:            schema.ParseRoadType(parts[2]),
		Weather:         schema.WeatherUnknown, // Waymo's layout omits weather
		ReactionSeconds: reaction,
	}, nil
}

// parseReaction parses "0.833 s" or "-".
func parseReaction(s string) (float64, error) {
	s = strings.TrimSpace(s)
	if s == "-" || s == "" {
		return -1, nil
	}
	s = strings.TrimSuffix(strings.TrimSpace(strings.TrimSuffix(s, "s")), " ")
	v, err := strconv.ParseFloat(cleanNumeric(strings.TrimSpace(s)), 64)
	if err != nil {
		return 0, fmt.Errorf("reaction time: %v", err)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative reaction time %g", v)
	}
	return v, nil
}

// vehicleOrEmpty maps the "-" placeholder back to empty.
func vehicleOrEmpty(s string) schema.VehicleID {
	if s == "-" {
		return ""
	}
	return schema.VehicleID(s)
}

// parseAccidentDoc handles one OL 316-style accident report.
func parseAccidentDoc(in Input, corpus *schema.Corpus, rep *Report) {
	a := schema.Accident{AVSpeedMPH: -1, OtherSpeedMPH: -1}
	haveMfr := false
	narrativeAt := -1
	accidentKeys := []string{
		"Manufacturer", "Reporting Period", "Date/Time", "Vehicle",
		"Location", "AV Speed (mph)", "Other Vehicle Speed (mph)",
		"Autonomous Mode",
	}
	var inlineNarrative string
	for i := 0; i < len(in.Lines); i++ {
		line := strings.TrimSpace(in.Lines[i])
		// The narrative marker may carry merged content after the colon.
		if at := narrativeMarkerIndex(line); at >= 0 {
			narrativeAt = i + 1
			inlineNarrative = strings.TrimSpace(line[at:])
			break
		}
		for _, seg := range splitHeaderSegments(line, accidentKeys) {
			switch {
			case fuzzyEqual(seg.key, "Manufacturer"):
				m, ok := resolveManufacturer(seg.val)
				if !ok {
					rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Line: i,
						Reason: fmt.Sprintf("unknown manufacturer %q", seg.val)})
					rep.SkippedDocs++
					return
				}
				a.Manufacturer = m
				haveMfr = true
			case fuzzyEqual(seg.key, "Reporting Period"):
				if y, err := parsePeriod(seg.val); err == nil {
					a.ReportYear = y
				}
			case fuzzyEqual(seg.key, "Date/Time"):
				// A merged line may leave trailing text after the
				// timestamp; parse just its prefix.
				v := cleanNumeric(seg.val)
				if len(v) > len("2006-01-02 15:04") {
					v = v[:len("2006-01-02 15:04")]
				}
				if ts, err := time.Parse("2006-01-02 15:04", v); err == nil {
					a.Time = ts
				} else {
					rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Line: i, Reason: "bad date/time"})
				}
			case fuzzyEqual(seg.key, "Vehicle"):
				if strings.Contains(strings.ToUpper(seg.val), "REDACTED") {
					a.Redacted = true
				} else {
					a.Vehicle = schema.VehicleID(seg.val)
				}
			case fuzzyEqual(seg.key, "Location"):
				a.Location = seg.val
			case fuzzyEqual(seg.key, "AV Speed (mph)"):
				a.AVSpeedMPH = parseSpeed(seg.val)
			case fuzzyEqual(seg.key, "Other Vehicle Speed (mph)"):
				a.OtherSpeedMPH = parseSpeed(seg.val)
			case fuzzyEqual(seg.key, "Autonomous Mode"):
				a.InAutonomousMode = strings.HasPrefix(strings.ToUpper(strings.TrimSpace(seg.val)), "YES")
			}
		}
	}
	if !haveMfr || a.Time.IsZero() {
		rep.SkippedDocs++
		rep.Defects = append(rep.Defects, Defect{DocID: in.DocID, Reason: "incomplete accident header"})
		return
	}
	if narrativeAt > 0 {
		var sb strings.Builder
		sb.WriteString(inlineNarrative)
		for i := narrativeAt; i < len(in.Lines); i++ {
			l := strings.TrimSpace(in.Lines[i])
			if l == "" {
				continue
			}
			if sb.Len() > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(l)
		}
		a.Narrative = sb.String()
	}
	corpus.Accidents = append(corpus.Accidents, a)
	rep.RowsParsed++
}

// narrativeMarkerIndex reports where narrative content starts on a line
// carrying the "NARRATIVE:" marker (possibly OCR-damaged or merged with the
// first narrative line), or -1 when the line is not the marker.
func narrativeMarkerIndex(line string) int {
	trimmed := strings.TrimSpace(line)
	if fuzzyEqual(strings.TrimSuffix(trimmed, ":"), "NARRATIVE") {
		return len(line) // marker only; content starts on the next line
	}
	if idx := strings.Index(strings.ToUpper(line), "NARRATIVE:"); idx == 0 {
		return len("NARRATIVE:")
	}
	return -1
}

// parseSpeed parses a speed field, returning -1 for "-" or damage.
func parseSpeed(val string) float64 {
	val = strings.TrimSpace(val)
	if val == "-" {
		return -1
	}
	v, err := strconv.ParseFloat(cleanNumeric(val), 64)
	if err != nil || v < 0 {
		return -1
	}
	return v
}

// keyVal is one "Key: value" segment of a header line.
type keyVal struct {
	key, val string
}

// splitHeaderSegments extracts every "key: value" pair from a line that may
// contain several (OCR line merges glue header lines together). Keys are
// located case-insensitively; text before the first key is ignored. A line
// with no known key falls back to a single splitField pair.
func splitHeaderSegments(line string, keys []string) []keyVal {
	lower := strings.ToLower(line)
	type hit struct {
		at  int
		key string
	}
	var hits []hit
	for _, k := range keys {
		needle := strings.ToLower(k) + ":"
		from := 0
		for {
			idx := strings.Index(lower[from:], needle)
			if idx < 0 {
				break
			}
			hits = append(hits, hit{at: from + idx, key: k})
			from += idx + len(needle)
		}
	}
	if len(hits) == 0 {
		if key, val, ok := splitField(line); ok {
			return []keyVal{{key: key, val: val}}
		}
		return nil
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].at < hits[j].at })
	out := make([]keyVal, 0, len(hits))
	for i, hh := range hits {
		start := hh.at + len(hh.key) + 1
		endAt := len(line)
		if i+1 < len(hits) {
			endAt = hits[i+1].at
		}
		if start > len(line) {
			continue
		}
		out = append(out, keyVal{key: hh.key, val: strings.TrimSpace(line[start:endAt])})
	}
	return out
}

// splitField splits "Key: value" once.
func splitField(line string) (key, val string, ok bool) {
	idx := strings.Index(line, ":")
	if idx < 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:idx]), strings.TrimSpace(line[idx+1:]), true
}

// splitTrim splits line on sep into its trimmed fields and returns their
// count, as len(strings.Split(line, sep)) would be. The fields are stored
// in dst only when the count is len(dst), so callers pass a fixed array.
func splitTrim(dst []string, line, sep string) int {
	n := strings.Count(line, sep) + 1
	if n != len(dst) {
		return n
	}
	for i := range n - 1 {
		var f string
		f, line, _ = strings.Cut(line, sep)
		dst[i] = strings.TrimSpace(f)
	}
	dst[n-1] = strings.TrimSpace(line)
	return n
}

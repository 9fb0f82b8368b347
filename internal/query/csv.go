package query

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// The CSV exports' header rows, in column order.
var (
	eventsCSVHeader = []string{"manufacturer", "vehicle", "reportYear", "time", "cause",
		"tag", "category", "modality", "road", "weather", "reactionSeconds"}
	accidentsCSVHeader = []string{"manufacturer", "vehicle", "reportYear", "time", "location",
		"narrative", "avSpeedMPH", "otherSpeedMPH", "inAutonomousMode", "redacted"}
)

// WriteEventsCSV writes the events the filter matches to w as CSV: a
// header row, then one record per match in ascending row order, read
// straight from the View's columns by the walk Events pages through.
// Times are RFC 3339 in whole seconds, and reaction times the shortest
// 'g' form that round-trips. A filter that matches nothing still writes
// the header; a malformed one is a *MonthError and writes nothing.
func (e *Engine) WriteEventsCSV(w io.Writer, f Filter) error {
	cw := csv.NewWriter(w)
	werr := cw.Write(eventsCSVHeader)
	v, rec := e.v, make([]string, 0, len(eventsCSVHeader))
	_, _, err := e.pageRows(f, Page{}, func(i int) {
		if werr != nil {
			return
		}
		rec = append(rec[:0], v.Manufacturer(i), v.Vehicle(i), v.ReportYear(i),
			v.Time(i).Format(time.RFC3339), v.Cause(i), v.Tag(i), v.Category(i),
			v.Modality(i), v.Road(i), v.Weather(i), formatFloat(v.ReactionSeconds(i)))
		werr = cw.Write(rec)
	})
	if err != nil {
		return err
	}
	return flushCSV(cw, werr)
}

// WriteAccidentsCSV writes every accident report of the study to w as
// CSV, in table order, formatted as WriteEventsCSV formats events; the
// autonomous-mode and redaction flags are written as 0 or 1.
func (e *Engine) WriteAccidentsCSV(w io.Writer) error {
	rows, err := e.v.Accidents()
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	err = cw.Write(accidentsCSVHeader)
	for _, a := range rows {
		if err != nil {
			break
		}
		err = cw.Write([]string{string(a.Manufacturer), string(a.Vehicle), a.ReportYear.String(),
			a.Time.Format(time.RFC3339), a.Location, a.Narrative, formatFloat(a.AVSpeedMPH),
			formatFloat(a.OtherSpeedMPH), flag01(a.InAutonomousMode), flag01(a.Redacted)})
	}
	return flushCSV(cw, err)
}

// formatFloat is the CSV form of a float: the shortest 'g' form that
// round-trips.
func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// flag01 is the CSV form of a flag.
func flag01(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// flushCSV ends a CSV export: the first record's write error if there
// was one, else the flush's.
func flushCSV(cw *csv.Writer, err error) error {
	if err == nil {
		cw.Flush()
		err = cw.Error()
	}
	if err != nil {
		return fmt.Errorf("query: write CSV: %w", err)
	}
	return nil
}

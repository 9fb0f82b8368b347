// Command avquery runs ad-hoc queries over the consolidated failure
// database: filter disengagements by manufacturer, tag, category, road,
// weather, modality, or month range, then list them or group-count them.
// The filtering and grouping live in the reusable internal/query engine —
// the same one behind the avserve HTTP API.
//
// Usage:
//
//	avquery [-seed 1] [-snapshot-dir snapshots/] [-mfr Waymo] [-tag "Recognition System"]
//	        [-category ML/Design] [-road highway] [-weather rain]
//	        [-modality manual] [-from 2015-01] [-to 2015-12]
//	        [-by tag|category|month|road|weather|modality|manufacturer]
//	        [-accidents] [-limit 20] [-csv] [-json]
//
// Without -by, matching events are listed (up to -limit); with -by, counts
// per group are printed; with -accidents, accident reports matching -mfr
// and the month range are listed through the same query.Engine.Accidents
// path the avserve API uses. -csv emits the matching rows as CSV on
// stdout, written straight from the study's columns by
// query.Engine.WriteEventsCSV, so a mapped study is never decoded into a
// database; -json emits the listing or the group counts as JSON instead of
// text. Malformed -from/-to values, a -limit below 1, and -accidents
// combined with a flag accident reports cannot honour (-tag, -category,
// -road, -weather, -modality, -by, -csv) are rejected before the study is
// built.
//
// With -snapshot-dir, the study is mapped from the directory's
// study-<seed>.avsnap2 columnar snapshot (written by avpipe -snapshot-out
// or avserve's write-through) instead of re-running the Stage I-IV
// pipeline. A missing snapshot falls back to the pipeline build, while a
// corrupt one is a hard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"

	"avfda"
	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avquery:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	seed := flag.Int64("seed", 1, "study seed")
	snapDir := flag.String("snapshot-dir", "", "load the study from this snapshot directory instead of rebuilding")
	mfr := flag.String("mfr", "", "filter: manufacturer name")
	tag := flag.String("tag", "", "filter: fault tag")
	category := flag.String("category", "", "filter: failure category")
	road := flag.String("road", "", "filter: road type")
	weather := flag.String("weather", "", "filter: weather condition")
	modality := flag.String("modality", "", "filter: disengagement modality")
	from := flag.String("from", "", "filter: first month, YYYY-MM")
	to := flag.String("to", "", "filter: last month, YYYY-MM")
	by := flag.String("by", "", "group counts by this column instead of listing")
	accidents := flag.Bool("accidents", false, "list accident reports instead of disengagements")
	limit := flag.Int("limit", 20, "max rows to list")
	csv := flag.Bool("csv", false, "emit matching rows as CSV")
	jsonOut := flag.Bool("json", false, "emit the listing or group counts as JSON")
	flag.Parse()

	f := query.Filter{
		Manufacturer: *mfr, Tag: *tag, Category: *category, Road: *road,
		Weather: *weather, Modality: *modality, From: *from, To: *to,
	}
	// Reject malformed month bounds, limits and accident filters before
	// paying for the study build.
	if err := checkFilter(f, *accidents, *by, *csv); err != nil {
		return err
	}
	if err := checkLimit(*limit); err != nil {
		return err
	}

	eng, release, err := loadEngine(*snapDir, *seed)
	if err != nil {
		return err
	}
	// Output is written before the release unmaps a mapped study.
	defer func() { err = errors.Join(err, release()) }()

	if *accidents {
		page, err := eng.Accidents(f, query.Page{Limit: *limit})
		if err != nil {
			return err
		}
		if *jsonOut {
			return encodeJSON(os.Stdout, page)
		}
		return printAccidents(os.Stdout, page, *limit)
	}

	matched, err := eng.Count(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "matched %d of %d events\n", matched, eng.Len())

	switch {
	case *csv:
		return eng.WriteEventsCSV(os.Stdout, f)
	case *by != "":
		if *jsonOut {
			return writeGroupsJSON(os.Stdout, eng, f, *by)
		}
		return printGroups(os.Stdout, eng, f, *by)
	default:
		if *jsonOut {
			return writeEventsJSON(os.Stdout, eng, f, *limit)
		}
		return printRows(os.Stdout, eng, f, *limit)
	}
}

// checkFilter validates the filter for the listing asked for. An accident
// listing takes only -mfr, -from and -to (query.Filter.ValidateAccidents
// decides), and neither -by nor -csv, which act on disengagements.
func checkFilter(f query.Filter, accidents bool, by string, csv bool) error {
	if !accidents {
		return f.Validate()
	}
	if by != "" {
		return errors.New("-by does not apply to -accidents")
	}
	if csv {
		return errors.New("-csv does not apply to -accidents")
	}
	return f.ValidateAccidents()
}

// checkLimit rejects a -limit below 1, as avserve rejects ?limit=0: a
// listing cap of zero or less would list every row and then report them
// all again as "more".
func checkLimit(limit int) error {
	if limit < 1 {
		return fmt.Errorf("bad -limit %d: want a positive integer", limit)
	}
	return nil
}

// loadEngine builds the query engine, preferring the seed's v2 snapshot
// (mapped, zero-copy) when a directory is given, then the pipeline. A
// missing snapshot falls back to the build; a corrupt or incompatible one
// is surfaced as snapshot2's typed error rather than silently rebuilt. The
// returned function releases the study once output is written: it unmaps
// a mapped View and does nothing for a build.
func loadEngine(snapDir string, seed int64) (*query.Engine, func() error, error) {
	if snapDir != "" {
		view, err := snapshot2.OpenSeed(snapDir, seed)
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "mapped snapshot %s\n", snapshot2.Path(snapDir, seed))
			return query.NewFromView(view), view.Close, nil
		case !errors.Is(err, fs.ErrNotExist):
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "no snapshot for seed %d in %s; building\n", seed, snapDir)
	}
	study, err := avfda.NewStudy(avfda.Options{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	eng, err := query.New(study.DB())
	if err != nil {
		return nil, nil, err
	}
	return eng, func() error { return nil }, nil
}

// printAccidents lists matched accident reports, truncated to limit.
func printAccidents(w io.Writer, page query.AccidentPage, limit int) error {
	for _, a := range page.Accidents {
		mode := "manual"
		if a.InAutonomousMode {
			mode = "autonomous"
		}
		fmt.Fprintf(w, "%s  %-14s %-10s %s\n",
			a.Time.Format("2006-01-02"), a.Manufacturer, mode, a.Location)
	}
	if page.Total > limit {
		fmt.Fprintf(w, "... and %d more (raise -limit)\n", page.Total-limit)
	}
	return nil
}

// printGroups prints per-group counts, descending.
func printGroups(w io.Writer, eng *query.Engine, f query.Filter, by string) error {
	groups, err := eng.GroupCount(f, by)
	if err != nil {
		return err
	}
	for _, g := range groups {
		fmt.Fprintf(w, "%6d  %s\n", g.Count, g.Key)
	}
	return nil
}

// printRows lists matched events, truncated to limit.
func printRows(w io.Writer, eng *query.Engine, f query.Filter, limit int) error {
	page, err := eng.Events(f, query.Page{Limit: limit})
	if err != nil {
		return err
	}
	for _, ev := range page.Events {
		cause := ev.Cause
		if len(cause) > 60 {
			cause = cause[:57] + "..."
		}
		fmt.Fprintf(w, "%s  %-14s %-24s %s\n",
			ev.Time.Format("2006-01-02"), ev.Manufacturer, ev.Tag, cause)
	}
	if page.Total > limit {
		fmt.Fprintf(w, "... and %d more (raise -limit or use -csv)\n", page.Total-limit)
	}
	return nil
}

// groupsJSON is the -json -by payload, matching the avserve groupby route.
type groupsJSON struct {
	By     string             `json:"by"`
	Groups []query.GroupCount `json:"groups"`
}

// writeGroupsJSON emits the group counts as indented JSON.
func writeGroupsJSON(w io.Writer, eng *query.Engine, f query.Filter, by string) error {
	groups, err := eng.GroupCount(f, by)
	if err != nil {
		return err
	}
	return encodeJSON(w, groupsJSON{By: by, Groups: groups})
}

// writeEventsJSON emits one page of matching events as indented JSON.
func writeEventsJSON(w io.Writer, eng *query.Engine, f query.Filter, limit int) error {
	page, err := eng.Events(f, query.Page{Limit: limit})
	if err != nil {
		return err
	}
	return encodeJSON(w, page)
}

// encodeJSON writes v as indented JSON with a trailing newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

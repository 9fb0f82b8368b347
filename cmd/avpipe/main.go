// Command avpipe runs the full Stage I-IV pipeline and prints per-stage
// diagnostics: digitization artifacts, parse defects, dictionary growth,
// and tag-recovery accuracy against the planted ground truth.
//
// Usage:
//
//	avpipe [-seed 1] [-noise 0.002] [-clean] [-no-expand] [-workers 0] [-in corpus/documents]
//	       [-csv out/] [-snapshot-out snapshots/]
//
// Without -in, the corpus is generated in memory; with -in, pre-rendered
// documents (from avgen, optionally re-noised by avocr) are parsed instead.
// -snapshot-out exports the consolidated failure database as a versioned,
// checksummed, mmap-able columnar study snapshot (study-<seed>.avsnap2)
// inside the given directory. avserve/avquery -snapshot-dir load it back
// without re-running the pipeline (ship the files from CI to every serving
// replica).
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"avfda/internal/core"
	"avfda/internal/ocr"
	"avfda/internal/parse"
	"avfda/internal/pipeline"
	"avfda/internal/query"
	"avfda/internal/schema"
	"avfda/internal/snapshot2"
	"avfda/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "avpipe:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "corpus seed")
	noise := flag.Float64("noise", 0.002, "OCR substitution rate")
	clean := flag.Bool("clean", false, "disable OCR noise")
	noExpand := flag.Bool("no-expand", false, "skip dictionary expansion passes")
	workers := flag.Int("workers", 0, "worker pool size for the concurrent stages (0 = all cores)")
	in := flag.String("in", "", "parse pre-rendered documents from this directory instead of generating")
	csvOut := flag.String("csv", "", "write the consolidated failure database as CSV into this directory")
	snapOut := flag.String("snapshot-out", "", "export the study snapshot (study-<seed>.avsnap2) into this directory")
	flag.Parse()

	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: *seed}
	cfg.OCR.SubstitutionRate = *noise
	cfg.OCR.Seed = *seed
	if *clean {
		cfg.OCR = ocr.Clean()
		cfg.OCR.Seed = *seed
	}
	cfg.ExpandDictionary = !*noExpand
	cfg.Workers = *workers

	// Ctrl-C / SIGTERM cancels the run between stages instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var res *pipeline.Result
	var err error
	if *in != "" {
		// The seed only names the exported snapshot: the documents carry
		// the data.
		var inputs []parse.Input
		if inputs, err = readDocuments(*in); err != nil {
			return err
		}
		res, err = pipeline.RunOnDocuments(ctx, cfg, inputs)
	} else {
		res, err = pipeline.Run(ctx, cfg)
	}
	if err != nil {
		return err
	}
	printResult(res)
	if *csvOut == "" && *snapOut == "" {
		return nil
	}
	// One encode serves both exports: the CSVs read the engine's columns
	// and the snapshot is its bytes.
	eng, err := query.New(res.DB)
	if err != nil {
		return err
	}
	if err := writeCSVs(eng, res.DB, *csvOut); err != nil {
		return err
	}
	return writeSnapshot(eng, *snapOut, *seed)
}

// writeSnapshot writes the engine's study as a v2 study snapshot when dir
// is set, so serving processes can warm-start from it.
func writeSnapshot(eng *query.Engine, dir string, seed int64) error {
	if dir == "" {
		return nil
	}
	if _, err := eng.WriteSeed(dir, seed); err != nil {
		return err
	}
	fmt.Printf("study snapshot written to %s\n", snapshot2.Path(dir, seed))
	return nil
}

// writeCSVs exports the consolidated database as CSV files when dir is
// set: the events and accidents from the engine's columns, the monthly
// mileage and per-manufacturer DPM from db.
func writeCSVs(eng *query.Engine, db *core.DB, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, out := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"events.csv", func(w io.Writer) error { return eng.WriteEventsCSV(w, query.Filter{}) }},
		{"accidents.csv", eng.WriteAccidentsCSV},
		{"mileage.csv", func(w io.Writer) error { return writeMileageCSV(w, db) }},
		{"dpm.csv", func(w io.Writer) error { return writeDPMCSV(w, db) }},
	} {
		file, err := os.Create(filepath.Join(dir, out.name))
		if err != nil {
			return err
		}
		if err := out.write(file); err != nil {
			file.Close()
			return err
		}
		if err := file.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("CSV export written to %s\n", dir)
	return nil
}

// writeMileageCSV writes the monthly mileage records as CSV, in table
// order: months in RFC 3339, miles in the shortest 'g' form.
func writeMileageCSV(w io.Writer, db *core.DB) error {
	cw := csv.NewWriter(w)
	err := cw.Write([]string{"manufacturer", "vehicle", "reportYear", "month", "miles"})
	for _, m := range db.Mileage {
		if err != nil {
			break
		}
		err = cw.Write([]string{string(m.Manufacturer), string(m.Vehicle), m.ReportYear.String(),
			m.Month.Format(time.RFC3339), formatFloat(m.Miles)})
	}
	return flushCSV(cw, err)
}

// writeDPMCSV writes each manufacturer with mileage records, by name: its
// total miles, its disengagements and their ratio, the DPM (0 without
// miles).
func writeDPMCSV(w io.Writer, db *core.DB) error {
	miles, events := db.MilesBy(), db.EventsBy()
	mfrs := make([]schema.Manufacturer, 0, len(miles))
	for m := range miles {
		mfrs = append(mfrs, m)
	}
	slices.Sort(mfrs)
	cw := csv.NewWriter(w)
	err := cw.Write([]string{"manufacturer", "totalMiles", "events", "dpm"})
	for _, m := range mfrs {
		if err != nil {
			break
		}
		mi, ev := miles[m], float64(events[m])
		var dpm float64
		if mi > 0 {
			dpm = ev / mi
		}
		err = cw.Write([]string{string(m), formatFloat(mi), formatFloat(ev), formatFloat(dpm)})
	}
	return flushCSV(cw, err)
}

// formatFloat is the CSV form of a float: the shortest 'g' form that
// round-trips.
func formatFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// flushCSV ends a CSV export: the first record's write error if there
// was one, else the flush's.
func flushCSV(cw *csv.Writer, err error) error {
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// readDocuments reads every .txt document in dir, in name order, split
// into lines.
func readDocuments(dir string) ([]parse.Input, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".txt") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	inputs := make([]parse.Input, 0, len(names))
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, parse.Input{
			DocID: strings.TrimSuffix(name, ".txt"),
			Lines: strings.Split(strings.TrimRight(string(raw), "\n"), "\n"),
		})
	}
	return inputs, nil
}

// printResult prints the per-stage diagnostics; tag accuracy needs the
// planted labels, so documents read with -in report none.
func printResult(res *pipeline.Result) {
	fmt.Println("== Stage II: digitization ==")
	if res.OCR.Documents > 0 {
		fmt.Printf("  %d documents, %d pages (%d manually transcribed)\n",
			res.OCR.Documents, res.OCR.Pages, res.OCR.ManualPages)
		fmt.Printf("  artifacts: %d substitutions, %d dropped separators, %d merged lines\n",
			res.OCR.Substitutions, res.OCR.DroppedSeparators, res.OCR.MergedLines)
		fmt.Printf("  mean OCR confidence: %.4f\n", res.OCR.MeanConfidence)
	}
	fmt.Printf("  parse: %d rows, %d defects (%.2f%%), %d documents skipped\n",
		res.ParseReport.RowsParsed, len(res.ParseReport.Defects),
		100*res.ParseReport.DefectRate(), res.ParseReport.SkippedDocs)

	fmt.Println("== Stage III: NLP ==")
	fmt.Printf("  failure dictionary: %d phrases\n", res.DictionarySize)
	if res.Truth != nil {
		fmt.Printf("  tag accuracy: %.2f%%, category accuracy: %.2f%% (%d matched)\n",
			100*res.Accuracy.TagAccuracy(), 100*res.Accuracy.CategoryAccuracy(), res.Accuracy.Matched)
		if top := res.Accuracy.TopConfusions(3); len(top) > 0 {
			fmt.Println("  top confusions:")
			for _, c := range top {
				fmt.Printf("    %s -> %s: %d\n", c.Want, c.Got, c.Count)
			}
		}
	}

	fmt.Println("== Stage IV: consolidated failure database ==")
	shares := res.DB.OverallCategoryShares()
	fmt.Printf("  %d disengagements, %d accidents\n", len(res.DB.Events), len(res.DB.Accidents))
	fmt.Printf("  category shares: perception %.1f%%, planner %.1f%%, system %.1f%%, unknown %.1f%%\n",
		100*shares.Perception, 100*shares.Planner, 100*shares.System, 100*shares.Unknown)
	fmt.Printf("  ML/Design total: %.1f%% (paper: 64%%)\n", 100*shares.MLDesign)
	if res.Elapsed > 0 {
		fmt.Printf("  stage timings: %s\n", res.Stages)
		fmt.Printf("  elapsed: %s (sum of stages)\n", res.Elapsed.Round(1e6))
	}
}

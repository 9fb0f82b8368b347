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
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"avfda/internal/core"
	"avfda/internal/nlp"
	"avfda/internal/ocr"
	"avfda/internal/parse"
	"avfda/internal/pipeline"
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

	if *in != "" {
		return runFromDocuments(*in, *noExpand, *workers, *csvOut, *snapOut, *seed)
	}

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

	res, err := pipeline.Run(ctx, cfg)
	if err != nil {
		return err
	}
	printResult(res, true)
	if err := writeCSVs(res.DB, *csvOut); err != nil {
		return err
	}
	return writeSnapshot(res.DB, *snapOut, *seed)
}

// writeSnapshot exports the consolidated database as a v2 study snapshot
// when dir is set, so serving processes can warm-start from it.
func writeSnapshot(db *core.DB, dir string, seed int64) error {
	if dir == "" {
		return nil
	}
	if _, err := snapshot2.WriteSeed(dir, seed, db); err != nil {
		return err
	}
	fmt.Printf("study snapshot written to %s\n", snapshot2.Path(dir, seed))
	return nil
}

// writeCSVs exports the consolidated database as CSV files when dir is set.
func writeCSVs(db *core.DB, dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, out := range []struct {
		name  string
		build func() (interface{ WriteCSV(w io.Writer) error }, error)
	}{
		{"events.csv", func() (interface{ WriteCSV(w io.Writer) error }, error) { return db.EventsFrame() }},
		{"accidents.csv", func() (interface{ WriteCSV(w io.Writer) error }, error) { return db.AccidentsFrame() }},
		{"mileage.csv", func() (interface{ WriteCSV(w io.Writer) error }, error) { return db.MileageFrame() }},
		{"dpm.csv", func() (interface{ WriteCSV(w io.Writer) error }, error) { return db.DPMFrame() }},
	} {
		f, err := out.build()
		if err != nil {
			return err
		}
		file, err := os.Create(filepath.Join(dir, out.name))
		if err != nil {
			return err
		}
		if err := f.WriteCSV(file); err != nil {
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

// runFromDocuments parses a document directory through Stages II-IV. The
// seed only names the exported snapshot (the documents carry the data).
func runFromDocuments(dir string, noExpand bool, workers int, csvOut, snapOut string, seed int64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
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
			return err
		}
		inputs = append(inputs, parse.Input{
			DocID: strings.TrimSuffix(name, ".txt"),
			Lines: strings.Split(strings.TrimRight(string(raw), "\n"), "\n"),
		})
	}
	corpus, parseRep, err := parse.ParseConcurrent(inputs, workers)
	if err != nil {
		return err
	}
	dict := nlp.SeedDictionary()
	if !noExpand {
		causes := make([]string, 0, len(corpus.Disengagements))
		for _, d := range corpus.Disengagements {
			causes = append(causes, d.Cause)
		}
		dict, _, err = nlp.Expand(dict, causes, nlp.DefaultOptions(), nlp.ExpandOptions{})
		if err != nil {
			return err
		}
	}
	cls, err := nlp.NewClassifier(dict, nlp.DefaultOptions())
	if err != nil {
		return err
	}
	db, err := core.BuildConcurrent(corpus, cls, workers)
	if err != nil {
		return err
	}
	res := &pipeline.Result{
		Recovered:      corpus,
		DB:             db,
		ParseReport:    parseRep,
		DictionarySize: dict.Size(),
	}
	printResult(res, false)
	if err := writeCSVs(db, csvOut); err != nil {
		return err
	}
	return writeSnapshot(db, snapOut, seed)
}

func printResult(res *pipeline.Result, haveTruth bool) {
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
	if haveTruth {
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

package pipeline

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"avfda/internal/calib"
	"avfda/internal/ocr"
	"avfda/internal/schema"
)

// runOnce caches a default end-to-end run for the integration assertions.
var cached *Result

func run(t *testing.T) *Result {
	t.Helper()
	if cached == nil {
		res, err := Run(context.Background(), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cached = res
	}
	return cached
}

func TestEndToEndRecoversCounts(t *testing.T) {
	res := run(t)
	// Default OCR noise loses under 3% of rows (merge-tolerant headers
	// keep whole documents from being dropped).
	gotEvents := len(res.DB.Events)
	if float64(gotEvents) < 0.97*float64(calib.TotalDisengagements) {
		t.Errorf("recovered %d of %d disengagements", gotEvents, calib.TotalDisengagements)
	}
	if res.ParseReport.SkippedDocs != 0 {
		t.Errorf("%d documents skipped at default noise", res.ParseReport.SkippedDocs)
	}
	if gotEvents > calib.TotalDisengagements {
		t.Errorf("recovered MORE events (%d) than planted (%d)", gotEvents, calib.TotalDisengagements)
	}
	if got := len(res.DB.Accidents); got < 40 || got > calib.TotalAccidents {
		t.Errorf("recovered %d accidents, want ~%d", got, calib.TotalAccidents)
	}
	miles := 0.0
	for _, m := range res.DB.Mileage {
		miles += m.Miles
	}
	if math.Abs(miles-calib.TotalMiles) > 0.05*calib.TotalMiles {
		t.Errorf("recovered %.0f miles, want ~%.0f", miles, calib.TotalMiles)
	}
}

func TestEndToEndTagAccuracy(t *testing.T) {
	res := run(t)
	if res.Accuracy.Matched < 5000 {
		t.Fatalf("matched only %d events to ground truth", res.Accuracy.Matched)
	}
	if acc := res.Accuracy.TagAccuracy(); acc < 0.90 {
		t.Errorf("tag recovery accuracy = %.3f, want >= 0.90", acc)
	}
	if acc := res.Accuracy.CategoryAccuracy(); acc < 0.92 {
		t.Errorf("category recovery accuracy = %.3f, want >= 0.92", acc)
	}
}

func TestEndToEndHeadlineResults(t *testing.T) {
	res := run(t)
	// The paper's headline survives the full noisy pipeline: ~64% of
	// disengagements from the ML system.
	s := res.DB.Exposure().OverallCategoryShares()
	if math.Abs(s.MLDesign-calib.MLDesignShare) > 0.07 {
		t.Errorf("end-to-end ML share = %.3f, paper %.2f", s.MLDesign, calib.MLDesignShare)
	}
	// Fig. 8 correlation survives.
	lc, err := res.DB.PooledLogCorrelation()
	if err != nil {
		t.Fatal(err)
	}
	if lc.R > -0.6 {
		t.Errorf("end-to-end pooled r = %.3f, want strongly negative", lc.R)
	}
	// Reaction mean survives.
	mean, err := res.DB.MeanReaction(3600)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-calib.MeanReactionSeconds) > 0.3 {
		t.Errorf("end-to-end mean reaction = %.3f", mean)
	}
	// Tesla's vague causes stay Unknown through the live NLP stage
	// (Table IV: 98.35% Unknown-C).
	for _, r := range res.DB.Exposure().CategoryBreakdown() {
		if r.Manufacturer == schema.Tesla && r.UnknownPct < 90 {
			t.Errorf("end-to-end Tesla Unknown-C = %.1f%%, want > 90%%", r.UnknownPct)
		}
	}
}

func TestEndToEndDiagnostics(t *testing.T) {
	res := run(t)
	if res.OCR.Documents < 50 {
		t.Errorf("documents = %d", res.OCR.Documents)
	}
	if res.OCR.Pages <= res.OCR.Documents {
		t.Errorf("pages = %d for %d documents", res.OCR.Pages, res.OCR.Documents)
	}
	if res.OCR.Substitutions == 0 {
		t.Error("default noise should introduce substitutions")
	}
	if res.OCR.MeanConfidence <= 0.9 || res.OCR.MeanConfidence > 1 {
		t.Errorf("mean confidence = %.3f", res.OCR.MeanConfidence)
	}
	if res.ParseReport.DefectRate() > 0.05 {
		t.Errorf("defect rate = %.4f", res.ParseReport.DefectRate())
	}
	if res.DictionarySize < 60 {
		t.Errorf("dictionary size = %d, expected seed + expansion", res.DictionarySize)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestConfusionMatrix(t *testing.T) {
	res := run(t)
	if len(res.Accuracy.Confusion) == 0 {
		t.Fatal("no confusion matrix")
	}
	// Diagonal mass equals TagCorrect.
	var diag, total int
	for pair, n := range res.Accuracy.Confusion {
		total += n
		if pair[0] == pair[1] {
			diag += n
		}
	}
	if diag != res.Accuracy.TagCorrect {
		t.Errorf("diagonal %d != TagCorrect %d", diag, res.Accuracy.TagCorrect)
	}
	if total != res.Accuracy.Matched {
		t.Errorf("confusion total %d != matched %d", total, res.Accuracy.Matched)
	}
	// TopConfusions is off-diagonal, sorted descending, bounded.
	top := res.Accuracy.TopConfusions(5)
	if len(top) > 5 {
		t.Errorf("TopConfusions returned %d", len(top))
	}
	for i, c := range top {
		if c.Want == c.Got {
			t.Error("diagonal entry in TopConfusions")
		}
		if i > 0 && c.Count > top[i-1].Count {
			t.Error("TopConfusions not sorted")
		}
	}
}

func TestCleanPipelineIsLossless(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OCR = ocr.Clean()
	cfg.Synth.Seed = 5
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DB.Events) != calib.TotalDisengagements {
		t.Errorf("clean pipeline recovered %d of %d events", len(res.DB.Events), calib.TotalDisengagements)
	}
	if len(res.ParseReport.Defects) != 0 {
		t.Errorf("clean pipeline produced %d defects", len(res.ParseReport.Defects))
	}
	if res.Accuracy.Matched != calib.TotalDisengagements {
		t.Errorf("matched %d of %d", res.Accuracy.Matched, calib.TotalDisengagements)
	}
}

func TestNoExpansionStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExpandDictionary = false
	cfg.OCR = ocr.Clean()
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Accuracy.TagAccuracy(); acc < 0.85 {
		t.Errorf("seed-dictionary-only accuracy = %.3f", acc)
	}
}

func TestRunOnCorpusDirect(t *testing.T) {
	// A tiny hand-built corpus through Stages II-IV.
	corpus := &schema.Corpus{
		Fleets: []schema.Fleet{{Manufacturer: schema.Nissan, ReportYear: schema.Report2016, Cars: 1}},
		Mileage: []schema.MonthlyMileage{{
			Manufacturer: schema.Nissan, Vehicle: "n1", ReportYear: schema.Report2016,
			Month: schema.StudyStart, Miles: 100,
		}},
		Disengagements: []schema.Disengagement{{
			Manufacturer: schema.Nissan, Vehicle: "n1", ReportYear: schema.Report2016,
			Time: schema.StudyStart.Add(1000), Cause: "Software module froze",
			Modality: schema.ModalityManual, ReactionSeconds: 0.9,
		}},
	}
	cfg := DefaultConfig()
	cfg.OCR = ocr.Clean()
	cfg.ExpandDictionary = false
	res, err := RunOnCorpus(context.Background(), cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DB.Events) != 1 {
		t.Fatalf("events = %d", len(res.DB.Events))
	}
	if res.DB.Events[0].Tag.String() != "Software" {
		t.Errorf("tag = %s", res.DB.Events[0].Tag)
	}
	if res.Truth != nil {
		t.Error("RunOnCorpus should not fabricate truth")
	}
}

func TestHeadlineStableAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("three full pipeline runs")
	}
	// The ML/Design headline must not be a one-seed artifact.
	for _, seed := range []int64{11, 12, 13} {
		cfg := DefaultConfig()
		cfg.Synth.Seed = seed
		cfg.OCR.Seed = seed
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := res.DB.Exposure().OverallCategoryShares()
		if math.Abs(s.MLDesign-calib.MLDesignShare) > 0.07 {
			t.Errorf("seed %d: ML share %.3f", seed, s.MLDesign)
		}
		if res.Accuracy.TagAccuracy() < 0.9 {
			t.Errorf("seed %d: tag accuracy %.3f", seed, res.Accuracy.TagAccuracy())
		}
	}
}

func TestConcurrentPipelineMatchesSequential(t *testing.T) {
	// The concurrency guarantee: for the same seed, output is byte-identical
	// at any worker count.
	base := DefaultConfig()
	base.Synth.Seed = 21
	seqCfg := base
	seqCfg.Workers = 1
	want, err := Run(context.Background(), seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{runtime.GOMAXPROCS(0)}
	if counts[0] != 4 {
		counts = append(counts, 4)
	}
	for _, workers := range counts {
		parCfg := base
		parCfg.Workers = workers
		got, err := Run(context.Background(), parCfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.DB, got.DB) {
			t.Errorf("workers=%d: consolidated DB differs from sequential run", workers)
		}
		if !reflect.DeepEqual(want.ParseReport, got.ParseReport) {
			t.Errorf("workers=%d: parse report differs from sequential run", workers)
		}
		if !reflect.DeepEqual(want.Recovered, got.Recovered) {
			t.Errorf("workers=%d: recovered corpus differs from sequential run", workers)
		}
		if want.OCR != got.OCR {
			t.Errorf("workers=%d: OCR stats differ: %+v vs %+v", workers, got.OCR, want.OCR)
		}
		if !reflect.DeepEqual(want.Accuracy, got.Accuracy) {
			t.Errorf("workers=%d: accuracy differs from sequential run", workers)
		}
		if want.DictionarySize != got.DictionarySize {
			t.Errorf("workers=%d: dictionary size %d vs %d", workers, got.DictionarySize, want.DictionarySize)
		}
	}
}

func TestElapsedIsSumOfStages(t *testing.T) {
	res := run(t)
	if res.Elapsed != res.Stages.Total() {
		t.Errorf("Run: Elapsed = %v, Stages.Total() = %v", res.Elapsed, res.Stages.Total())
	}
	for _, stage := range []struct {
		name string
		d    int64
	}{
		{"synth", int64(res.Stages.Synth)},
		{"render", int64(res.Stages.Render)},
		{"ocr", int64(res.Stages.OCR)},
		{"parse", int64(res.Stages.Parse)},
		{"expand", int64(res.Stages.Expand)},
		{"classify", int64(res.Stages.Classify)},
		{"build", int64(res.Stages.Build)},
	} {
		if stage.d <= 0 {
			t.Errorf("Run: stage %s not timed", stage.name)
		}
	}

	roc, err := RunOnCorpus(context.Background(), DefaultConfig(), &res.Truth.Corpus)
	if err != nil {
		t.Fatal(err)
	}
	if roc.Stages.Synth != 0 {
		t.Errorf("RunOnCorpus recorded synth time %v without running Stage I", roc.Stages.Synth)
	}
	if roc.Elapsed != roc.Stages.Total() {
		t.Errorf("RunOnCorpus: Elapsed = %v, Stages.Total() = %v", roc.Elapsed, roc.Stages.Total())
	}
}

func TestBadOCRConfigSurfaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OCR.SubstitutionRate = 2
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Error("invalid OCR config: want error")
	}
}

// TestRunHonorsCancellation pins the context threading: a cancelled context
// aborts the run and the error classifies with errors.Is, not message
// matching.
func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, DefaultConfig())
	if err == nil {
		t.Fatal("Run with a cancelled context: want error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(err, context.Canceled)", err)
	}

	_, err = RunOnCorpus(ctx, DefaultConfig(), &schema.Corpus{})
	if err == nil {
		t.Fatal("RunOnCorpus with a cancelled context: want error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RunOnCorpus err = %v, want errors.Is(err, context.Canceled)", err)
	}
}

package avfda

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4 maps IDs to modules) and reports the headline
// measured quantities as custom benchmark metrics, so `go test -bench=.`
// output doubles as the reproduction record behind EXPERIMENTS.md.
//
// Shared setup (the end-to-end study) is built once per process; each
// benchmark measures only its artifact's computation.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"avfda/internal/calib"
	"avfda/internal/core"
	"avfda/internal/mission"
	"avfda/internal/nlp"
	"avfda/internal/ocr"
	"avfda/internal/parse"
	"avfda/internal/pipeline"
	"avfda/internal/reliability"
	"avfda/internal/report"
	"avfda/internal/scandoc"
	"avfda/internal/schema"
	"avfda/internal/stats"
	"avfda/internal/synth"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchErr   error
)

func benchDB(b *testing.B) *core.DB {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = NewStudy(Options{Seed: 1})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy.DB()
}

// --- Tables ---

func BenchmarkTableI(b *testing.B) {
	db := benchDB(b)
	var rows []core.FleetRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = db.Exposure().FleetSummary()
	}
	b.StopTimer()
	var miles float64
	var events int
	for _, r := range rows {
		miles += r.Miles
		events += r.Disengagements
	}
	b.ReportMetric(miles, "miles")
	b.ReportMetric(float64(events), "disengagements")
	b.ReportMetric(calib.TotalMiles, "paper-miles")
}

func BenchmarkTableII(b *testing.B) {
	cls, err := nlp.NewClassifier(nlp.SeedDictionary(), nlp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	logs := []string{
		"Software module froze. As a result driver safely disengaged and resumed manual control.",
		"The AV didn't see the lead vehicle, driver safely disengaged and resumed manual control.",
		"Disengage for a recklessly behaving road user",
		"Takeover-Request - watchdog error",
	}
	var correct int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correct = 0
		for _, l := range logs {
			if cls.Classify(l).Tag.String() != "Unknown-T" {
				correct++
			}
		}
	}
	b.ReportMetric(float64(correct)/float64(len(logs)), "tagged-frac")
}

func BenchmarkTableIII(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableIII()
	}
	b.ReportMetric(float64(len(out)), "bytes")
}

func BenchmarkTableIV(b *testing.B) {
	db := benchDB(b)
	var shares core.CategoryShares
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := db.Exposure()
		_ = x.CategoryBreakdown()
		shares = x.OverallCategoryShares()
	}
	b.ReportMetric(100*shares.MLDesign, "ml-pct")
	b.ReportMetric(100*calib.MLDesignShare, "paper-ml-pct")
}

func BenchmarkTableV(b *testing.B) {
	db := benchDB(b)
	var rows []core.ModalityRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = db.Exposure().ModalityBreakdown()
	}
	b.StopTimer()
	var auto, n float64
	for _, r := range rows {
		auto += r.AutomaticPct
		n++
	}
	b.ReportMetric(auto/n, "mean-auto-pct")
	b.ReportMetric(100*calib.MeanAutomaticShare, "paper-auto-pct")
}

func BenchmarkTableVI(b *testing.B) {
	db := benchDB(b)
	var rows []core.AccidentRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = db.Exposure().AccidentSummary()
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Manufacturer == schema.Waymo {
			b.ReportMetric(r.DPA, "waymo-dpa")
			b.ReportMetric(calib.TableVI[schema.Waymo].DPA, "paper-waymo-dpa")
		}
	}
}

func BenchmarkTableVII(b *testing.B) {
	db := benchDB(b)
	var rows []core.ReliabilityRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = db.Exposure().ReliabilityVsHuman()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		switch r.Manufacturer {
		case schema.Waymo:
			b.ReportMetric(r.RelToHuman, "waymo-vs-human")
		case schema.GMCruise:
			b.ReportMetric(r.RelToHuman, "gmcruise-vs-human")
		}
	}
}

func BenchmarkTableVIII(b *testing.B) {
	db := benchDB(b)
	var rows []core.CrossDomainRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = db.Exposure().CrossDomainTable()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		if r.Manufacturer == schema.Waymo {
			b.ReportMetric(r.VsAirline, "waymo-vs-airline")
			b.ReportMetric(calib.TableVIII[schema.Waymo].VsAirline, "paper-vs-airline")
		}
	}
}

// --- Figures ---

func BenchmarkFigure4(b *testing.B) {
	db := benchDB(b)
	var dists []core.DPMDistribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dists = db.DPMPerCar()
	}
	b.StopTimer()
	for _, d := range dists {
		if d.Manufacturer == schema.Waymo {
			b.ReportMetric(d.Box.Median, "waymo-median-dpm")
			b.ReportMetric(calib.TableVII[schema.Waymo].MedianDPM, "paper-median-dpm")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	db := benchDB(b)
	var series []core.CumulativeSeries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		series, err = db.CumulativeDisengagements()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var r2Sum float64
	var n int
	for _, s := range series {
		if len(s.Points) >= 10 {
			r2Sum += s.Fit.R2
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(r2Sum/float64(n), "mean-R2")
	}
}

func BenchmarkFigure6(b *testing.B) {
	db := benchDB(b)
	var rows []core.TagFractions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = db.TagBreakdown()
	}
	b.ReportMetric(float64(len(rows)), "manufacturers")
}

func BenchmarkFigure7(b *testing.B) {
	db := benchDB(b)
	var rows []core.YearDistribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = db.DPMByYear()
	}
	b.StopTimer()
	waymo := map[int]float64{}
	for _, r := range rows {
		if r.Manufacturer == schema.Waymo {
			waymo[r.Year] = r.Box.Median
		}
	}
	if waymo[2016] > 0 {
		b.ReportMetric(waymo[2014]/waymo[2016], "waymo-2014-2016-drop")
	}
}

func BenchmarkFigure8(b *testing.B) {
	db := benchDB(b)
	var lc core.LogCorrelation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		lc, err = db.PooledLogCorrelation()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(lc.R, "pearson-r")
	b.ReportMetric(calib.Fig8PearsonR, "paper-r")
}

func BenchmarkFigure9(b *testing.B) {
	db := benchDB(b)
	var series []core.DPMTrendSeries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		series, err = db.DPMTrend()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	neg := 0
	for _, s := range series {
		if s.FitOK && s.Fit.Slope < 0 {
			neg++
		}
	}
	b.ReportMetric(float64(neg), "improving-manufacturers")
}

func BenchmarkFigure10(b *testing.B) {
	db := benchDB(b)
	var mean float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.ReactionTimes()
		var err error
		mean, err = db.MeanReaction(3600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mean, "mean-reaction-s")
	b.ReportMetric(calib.MeanReactionSeconds, "paper-mean-s")
}

func BenchmarkFigure11(b *testing.B) {
	db := benchDB(b)
	var fit core.ReactionFit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = db.FitReactionWeibull(schema.Waymo, 3600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.Weibull.K, "waymo-shape")
	b.ReportMetric(fit.KS, "ks-distance")
}

func BenchmarkFigure12(b *testing.B) {
	db := benchDB(b)
	var under float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.AccidentSpeeds(); err != nil {
			b.Fatal(err)
		}
		under = db.RelativeSpeedUnder(10)
	}
	b.ReportMetric(100*under, "rel-under-10mph-pct")
	b.ReportMetric(100*calib.RelSpeedUnder10Pct, "paper-pct")
}

// --- Section-level results ---

func BenchmarkAlertness(b *testing.B) {
	db := benchDB(b)
	var trends []core.AlertnessTrend
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		trends, err = db.AlertnessTrends(3600)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, tr := range trends {
		if tr.Manufacturer == schema.Waymo {
			b.ReportMetric(tr.R, "waymo-r")
			b.ReportMetric(calib.ReactionCorr[schema.Waymo].R, "paper-waymo-r")
		}
	}
}

func BenchmarkAccidentTrend(b *testing.B) {
	db := benchDB(b)
	var res stats.PearsonResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = db.AccidentMilesTrend()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.R, "pearson-r")
	b.ReportMetric(calib.AccidentAPMCorr, "paper-r")
}

func BenchmarkKalraPaddock(b *testing.B) {
	var conf float64
	for i := 0; i < b.N; i++ {
		var err error
		conf, err = reliability.EstimateConfidence(25, 2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := reliability.MilesToDemonstrate(calib.HumanAPM, 0.95); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(conf, "waymo-confidence")
}

// --- Pipeline-stage benches ---

func BenchmarkPipelineEndToEnd(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	var res *pipeline.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Synth.Seed = int64(i + 1)
		var err error
		res, err = pipeline.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.Accuracy.TagAccuracy(), "tag-accuracy-pct")
}

func BenchmarkSynthGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.Config{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRender measures Stage I's document rendering of the seed-1
// corpus.
func BenchmarkRender(b *testing.B) {
	truth, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var docs []scandoc.Document
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs = scandoc.Render(&truth.Corpus)
	}
	b.ReportMetric(float64(len(docs)), "docs")
}

// BenchmarkPipelineWorkers measures an end-to-end build of the calibrated
// study sequentially (Workers=1) and with the OCR and parse fan-out on
// GOMAXPROCS workers (Workers=0); the seq/par ratio is what the fan-out
// buys.
func BenchmarkPipelineWorkers(b *testing.B) {
	modes := []struct {
		name    string
		workers int
	}{
		{"seq", 1},
		{fmt.Sprintf("par-%d", runtime.GOMAXPROCS(0)), 0},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.Workers = mode.workers
			var events int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Synth.Seed = int64(i + 1)
				res, err := pipeline.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = len(res.DB.Events)
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkParseConcurrent measures Stage II parsing throughput at 1 and
// GOMAXPROCS workers over the default decoded document set.
func BenchmarkParseConcurrent(b *testing.B) {
	truth, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	docs := scandoc.Render(&truth.Corpus)
	engine, err := ocr.NewEngine(ocr.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	decoded, err := engine.DecodeAllConcurrent(context.Background(), docs, 0)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]parse.Input, 0, len(decoded))
	for _, d := range decoded {
		inputs = append(inputs, parse.Input{DocID: d.DocID, Lines: d.Lines})
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var rows int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, rep, err := parse.ParseConcurrent(inputs, workers)
				if err != nil {
					b.Fatal(err)
				}
				rows = rep.RowsParsed
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// BenchmarkClassifyAll measures Stage III classification throughput over
// the full synthetic cause corpus. It reports how many causes were tagged
// and how many distinct cause texts the corpus has, which is what
// ClassifyAll's cost follows.
func BenchmarkClassifyAll(b *testing.B) {
	truth, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	causes := make([]string, len(truth.Corpus.Disengagements))
	distinct := make(map[string]struct{})
	for i, d := range truth.Corpus.Disengagements {
		causes[i] = d.Cause
		distinct[d.Cause] = struct{}{}
	}
	cls, err := nlp.NewClassifier(nlp.SeedDictionary(), nlp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var tagged int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagged = 0
		for _, r := range cls.ClassifyAll(causes) {
			if r.Score > 0 {
				tagged++
			}
		}
	}
	b.ReportMetric(float64(tagged), "tagged")
	b.ReportMetric(float64(len(distinct)), "distinct")
}

// BenchmarkSurvival regenerates the Kaplan-Meier analysis.
func BenchmarkSurvival(b *testing.B) {
	db := benchDB(b)
	var curves []core.SurvivalCurve
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		curves, err = db.SurvivalCurves()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, c := range curves {
		if c.Manufacturer == schema.Waymo {
			b.ReportMetric(c.MedianMiles, "waymo-median-miles")
		}
	}
}

// BenchmarkRoadContext regenerates the road-type conditioning.
func BenchmarkRoadContext(b *testing.B) {
	db := benchDB(b)
	var risks []core.RoadRisk
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		risks, _ = db.RoadBreakdown()
	}
	b.ReportMetric(float64(len(risks)), "road-types")
}

func BenchmarkOCRDecode(b *testing.B) {
	truth, err := synth.Generate(synth.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	docs := scandoc.Render(&truth.Corpus)
	engine, err := ocr.NewEngine(ocr.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var lines int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = 0
		for _, r := range engine.DecodeAll(docs) {
			lines += len(r.Lines)
		}
	}
	b.ReportMetric(float64(lines), "lines")
}

func BenchmarkClassifier(b *testing.B) {
	cls, err := nlp.NewClassifier(nlp.SeedDictionary(), nlp.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	causes := []string{
		"Software module froze during merge",
		"LIDAR failed to localize in time",
		"Disengage for a recklessly behaving road user",
		"Incorrect behavior prediction at crosswalk",
		"Planned test event recorded",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cls.Classify(causes[i%len(causes)])
	}
}

// BenchmarkMilesBetweenDisengagements regenerates the paper's proposed
// §V-C2 replacement metric.
func BenchmarkMilesBetweenDisengagements(b *testing.B) {
	db := benchDB(b)
	var dists []core.MBDDistribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dists = db.MilesBetweenDisengagements()
	}
	b.StopTimer()
	for _, d := range dists {
		if d.Manufacturer == schema.Waymo {
			b.ReportMetric(d.Box.Median, "waymo-median-mbd")
		}
	}
}

// BenchmarkMissionModel fits and runs the stochastic fault-injection model
// (the paper's future-work direction) and reports how closely the
// simulated DPM tracks the field rate.
func BenchmarkMissionModel(b *testing.B) {
	db := benchDB(b)
	model, err := mission.Fit(db, calib.MedianTripMiles)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var st mission.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, err = mission.Campaign(model, 50000, rng, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.DPM(), "sim-dpm")
	b.ReportMetric(5328.0/1116605.0, "field-dpm")
	b.ReportMetric(st.DPA(), "sim-dpa")
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationNoStemming measures classifier tag accuracy with Porter
// stemming disabled: dictionary voting degrades on inflected causes.
func BenchmarkAblationNoStemming(b *testing.B) {
	for _, stem := range []struct {
		name string
		on   bool
	}{{"stem", true}, {"nostem", false}} {
		b.Run(stem.name, func(b *testing.B) {
			truth, err := synth.Generate(synth.Config{Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			opts := nlp.DefaultOptions()
			opts.Stem = stem.on
			cls, err := nlp.NewClassifier(nlp.SeedDictionary(), opts)
			if err != nil {
				b.Fatal(err)
			}
			var correct, total int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correct, total = 0, 0
				for j, d := range truth.Corpus.Disengagements {
					if cls.Classify(d.Cause).Tag == truth.Tags[j] {
						correct++
					}
					total++
				}
			}
			b.ReportMetric(100*float64(correct)/float64(total), "tag-accuracy-pct")
		})
	}
}

// BenchmarkAblationOCRNoise sweeps the OCR substitution rate and reports
// the end-to-end parse-defect rate and tag accuracy at each point.
func BenchmarkAblationOCRNoise(b *testing.B) {
	for _, noise := range []struct {
		name string
		rate float64
	}{
		{"0pct", 0}, {"0.2pct", 0.002}, {"1pct", 0.01}, {"3pct", 0.03},
	} {
		b.Run(noise.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.OCR.SubstitutionRate = noise.rate
			cfg.OCR.SeparatorDropRate = noise.rate
			var res *pipeline.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pipeline.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.ParseReport.DefectRate(), "defect-pct")
			b.ReportMetric(100*res.Accuracy.TagAccuracy(), "tag-accuracy-pct")
			b.ReportMetric(float64(res.OCR.ManualPages), "manual-pages")
		})
	}
}

// BenchmarkAblationExpansion compares the corpus-mining dictionary
// expansion against the seed dictionary alone, under elevated OCR noise
// (mined phrases come from corrupted text, so expansion could help or
// hurt; this measures which).
func BenchmarkAblationExpansion(b *testing.B) {
	for _, mode := range []struct {
		name   string
		expand bool
	}{{"expand", true}, {"seed-only", false}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := pipeline.DefaultConfig()
			cfg.OCR.SubstitutionRate = 0.01
			cfg.ExpandDictionary = mode.expand
			var res *pipeline.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = pipeline.Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Accuracy.TagAccuracy(), "tag-accuracy-pct")
			b.ReportMetric(float64(res.DictionarySize), "dictionary-phrases")
		})
	}
}

// BenchmarkAblationDictionarySize measures tag recovery as the seed
// dictionary is truncated to n phrases per tag.
func BenchmarkAblationDictionarySize(b *testing.B) {
	truth, err := synth.Generate(synth.Config{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("%d-phrases", size), func(b *testing.B) {
			dict := nlp.SeedDictionary().Truncate(size)
			cls, err := nlp.NewClassifier(dict, nlp.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			var correct int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correct = 0
				for j, d := range truth.Corpus.Disengagements {
					if cls.Classify(d.Cause).Tag == truth.Tags[j] {
						correct++
					}
				}
			}
			b.ReportMetric(100*float64(correct)/float64(len(truth.Tags)), "tag-accuracy-pct")
			b.ReportMetric(float64(dict.Size()), "phrases")
		})
	}
}

// BenchmarkAblationVotingTieBreak compares the priority tie-break against a
// naive first-match policy. Clean single-fault causes rarely tie, so the
// ablation measures (a) accuracy on the synthetic corpus and (b) the
// disagreement rate between the two policies on composite causes that mix
// two fault classes in one log line — the ambiguous texts the tie-break
// exists for.
func BenchmarkAblationVotingTieBreak(b *testing.B) {
	truth, err := synth.Generate(synth.Config{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	// Composite causes: pair each cause with the next one from a
	// different manufacturer (deterministic, no RNG in benches).
	var composites []string
	for i := 0; i+37 < len(truth.Corpus.Disengagements) && len(composites) < 500; i += 11 {
		a := truth.Corpus.Disengagements[i].Cause
		c := truth.Corpus.Disengagements[i+37].Cause
		composites = append(composites, a+" and "+c)
	}
	opts := nlp.DefaultOptions()
	opts.TieBreak = nlp.TieBreakPriority
	prio, err := nlp.NewClassifier(nlp.SeedDictionary(), opts)
	if err != nil {
		b.Fatal(err)
	}
	opts.TieBreak = nlp.TieBreakFirstMatch
	first, err := nlp.NewClassifier(nlp.SeedDictionary(), opts)
	if err != nil {
		b.Fatal(err)
	}
	for _, tb := range []struct {
		name string
		cls  *nlp.Classifier
	}{
		{"priority", prio},
		{"first-match", first},
	} {
		b.Run(tb.name, func(b *testing.B) {
			var correct, disagree int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				correct = 0
				for j, d := range truth.Corpus.Disengagements {
					if tb.cls.Classify(d.Cause).Tag == truth.Tags[j] {
						correct++
					}
				}
				disagree = 0
				for _, c := range composites {
					if prio.Classify(c).Tag != first.Classify(c).Tag {
						disagree++
					}
				}
			}
			b.ReportMetric(100*float64(correct)/float64(len(truth.Tags)), "tag-accuracy-pct")
			b.ReportMetric(100*float64(disagree)/float64(len(composites)), "composite-disagree-pct")
		})
	}
}

// Package avfda is an open-source reproduction of "Hands Off the Wheel in
// Autonomous Vehicles? A Systems Perspective on over a Million Miles of
// Field Data" (Banerjee et al., DSN 2018): a toolkit for analyzing
// autonomous-vehicle disengagement and accident field data.
//
// The package exposes the paper's end-to-end workflow:
//
//	study, err := avfda.NewStudy(avfda.Options{Seed: 1})
//	fmt.Print(study.TableVII())   // AV reliability vs human drivers
//	fmt.Print(study.Figure8())    // DPM-vs-miles correlation
//
// A Study runs Stage I–IV of the paper's pipeline — synthetic DMV corpus
// generation (calibrated to every aggregate the paper publishes), scanned-
// document rendering, OCR with realistic noise and manual fallback,
// vendor-format parsing and normalization, NLP fault tagging over an
// STPA-derived ontology, and the statistical analyses behind every table
// and figure in the paper's evaluation.
//
// Deeper access (custom corpora, individual stages, raw statistics) is
// available through the pipeline entry points below and, for code living
// in this module, the internal packages documented in DESIGN.md.
package avfda

import (
	"context"
	"encoding/json"
	"fmt"

	"avfda/internal/calib"
	"avfda/internal/core"
	"avfda/internal/mission"
	"avfda/internal/nlp"
	"avfda/internal/ocr"
	"avfda/internal/pipeline"
	"avfda/internal/report"
	"avfda/internal/schema"
	"avfda/internal/stpa"
	"avfda/internal/synth"
)

// Options configures a Study.
type Options struct {
	// Seed drives corpus generation and OCR noise; equal seeds reproduce
	// identical studies. Zero means seed 1.
	Seed int64
	// CleanOCR disables digitization noise (useful for exact-count
	// verification; the default models a realistic scanned corpus).
	CleanOCR bool
	// NoDictionaryExpansion restricts the NLP stage to the hand-verified
	// seed dictionary.
	NoDictionaryExpansion bool
}

// Study is a completed end-to-end run over the two DMV data releases.
type Study struct {
	res *pipeline.Result
}

// NewStudy generates the calibrated corpus and runs the full pipeline. It
// is equivalent to NewStudyContext with a background context.
func NewStudy(opts Options) (*Study, error) {
	return NewStudyContext(context.Background(), opts)
}

// NewStudyContext is NewStudy under a caller-supplied context: cancelling
// ctx aborts the pipeline between stages and inside the OCR fan-out, and
// the returned error wraps ctx.Err().
func NewStudyContext(ctx context.Context, opts Options) (*Study, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	cfg := pipeline.DefaultConfig()
	cfg.Synth = synth.Config{Seed: seed}
	cfg.OCR.Seed = seed
	if opts.CleanOCR {
		clean := ocr.Clean()
		clean.Seed = seed
		cfg.OCR = clean
	}
	cfg.ExpandDictionary = !opts.NoDictionaryExpansion
	res, err := pipeline.Run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("avfda: %w", err)
	}
	return &Study{res: res}, nil
}

// NewStudyFromJSON runs Stages II-IV of the pipeline over a caller-provided
// normalized corpus serialized as JSON (the format written by `avgen` into
// truth.json's "corpus" field, i.e. the JSON encoding of the corpus schema:
// fleets, mileage, disengagements, accidents). Use this entry point to
// analyze real filings you have transcribed yourself. The corpus is
// validated (study window, known manufacturers, non-negative miles) before
// analysis; ground-truth accuracy metrics are unavailable for external data.
// It is equivalent to NewStudyFromJSONContext with a background context.
func NewStudyFromJSON(data []byte, opts Options) (*Study, error) {
	return NewStudyFromJSONContext(context.Background(), data, opts)
}

// NewStudyFromJSONContext is NewStudyFromJSON under a caller-supplied
// context, with the same cancellation semantics as NewStudyContext.
func NewStudyFromJSONContext(ctx context.Context, data []byte, opts Options) (*Study, error) {
	var corpus schema.Corpus
	if err := json.Unmarshal(data, &corpus); err != nil {
		return nil, fmt.Errorf("avfda: decode corpus: %w", err)
	}
	if err := corpus.Validate(); err != nil {
		return nil, fmt.Errorf("avfda: %w", err)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	cfg := pipeline.DefaultConfig()
	cfg.OCR.Seed = seed
	if opts.CleanOCR {
		clean := ocr.Clean()
		clean.Seed = seed
		cfg.OCR = clean
	}
	cfg.ExpandDictionary = !opts.NoDictionaryExpansion
	res, err := pipeline.RunOnCorpus(ctx, cfg, &corpus)
	if err != nil {
		return nil, fmt.Errorf("avfda: %w", err)
	}
	return &Study{res: res}, nil
}

// DB returns the consolidated failure database for custom analyses.
func (s *Study) DB() *core.DB { return s.res.DB }

// Result exposes the pipeline run with per-stage diagnostics.
func (s *Study) Result() *pipeline.Result { return s.res }

// Summary reports the headline counts and the pipeline's recovery quality.
func (s *Study) Summary() string {
	agg := s.res.DB.Aggregates()
	shares := s.res.DB.Exposure().OverallCategoryShares()
	return fmt.Sprintf(
		"corpus: %d disengagements, %d accidents, %.0f autonomous miles\n"+
			"pipeline: %.1f%% rows recovered, tag accuracy %.1f%%, %d manual pages\n"+
			"headline: ML/Design faults %.1f%% of disengagements (paper: 64%%)\n"+
			"aggregates: %.1f miles/disengagement, %.1f disengagements/accident\n",
		len(s.res.DB.Events), len(s.res.DB.Accidents), totalMiles(s.res.DB),
		100*(1-s.res.ParseReport.DefectRate()), 100*s.res.Accuracy.TagAccuracy(),
		s.res.OCR.ManualPages,
		100*shares.MLDesign,
		agg.MilesPerDisengagement, agg.DisengagementsPerAccident)
}

func totalMiles(db *core.DB) float64 {
	var total float64
	for _, m := range db.Mileage {
		total += m.Miles
	}
	return total
}

// TableI renders the fleet summary (paper Table I).
func (s *Study) TableI() string { return report.TableI(s.res.DB) }

// TableIII renders the fault-tag ontology (paper Table III).
func (s *Study) TableIII() string { return report.TableIII() }

// TableIV renders the root-cause category breakdown (paper Table IV).
func (s *Study) TableIV() string { return report.TableIV(s.res.DB) }

// TableV renders the modality breakdown (paper Table V).
func (s *Study) TableV() string { return report.TableV(s.res.DB) }

// TableVI renders the accident summary (paper Table VI).
func (s *Study) TableVI() string { return report.TableVI(s.res.DB) }

// TableVII renders AV-vs-human reliability (paper Table VII).
func (s *Study) TableVII() (string, error) { return report.TableVII(s.res.DB) }

// TableVIII renders the cross-domain comparison (paper Table VIII).
func (s *Study) TableVIII() (string, error) { return report.TableVIII(s.res.DB) }

// Figure4 renders the per-car DPM distributions.
func (s *Study) Figure4() string { return report.Figure4(s.res.DB) }

// Figure5 renders cumulative disengagements vs miles.
func (s *Study) Figure5() (string, error) { return report.Figure5(s.res.DB) }

// Figure6 renders the fault-tag fractions.
func (s *Study) Figure6() string { return report.Figure6(s.res.DB) }

// Figure7 renders the year-by-year DPM evolution.
func (s *Study) Figure7() string { return report.Figure7(s.res.DB) }

// Figure8 renders the pooled log-log DPM correlation.
func (s *Study) Figure8() (string, error) { return report.Figure8(s.res.DB) }

// Figure9 renders per-manufacturer DPM trends.
func (s *Study) Figure9() (string, error) { return report.Figure9(s.res.DB) }

// Figure10 renders the reaction-time distributions.
func (s *Study) Figure10() (string, error) { return report.Figure10(s.res.DB) }

// Figure11 renders the Weibull reaction-time fits.
func (s *Study) Figure11() (string, error) { return report.Figure11(s.res.DB) }

// Figure12 renders the accident-speed distributions.
func (s *Study) Figure12() (string, error) { return report.Figure12(s.res.DB) }

// RoadContext renders the road-type risk conditioning (§VI).
func (s *Study) RoadContext() string { return report.RoadContext(s.res.DB) }

// WeatherContext renders the weather breakdown.
func (s *Study) WeatherContext() string { return report.WeatherContext(s.res.DB) }

// MilesBetween renders the paper's proposed §V-C2 per-vehicle metric.
func (s *Study) MilesBetween() string { return report.MilesBetween(s.res.DB) }

// MissionValidation fits and validates the fault-injection mission model
// against the field rates, with counterfactual sweeps.
func (s *Study) MissionValidation() (string, error) {
	return report.MissionValidation(s.res.DB, 200000, 1)
}

// Survival renders the Kaplan–Meier miles-to-first-disengagement analysis.
func (s *Study) Survival() (string, error) {
	return report.Survival(s.res.DB)
}

// CaseStudies runs the paper's §II accident scenarios through the STPA
// control-structure analysis and renders the causal read-outs.
func (s *Study) CaseStudies() (string, error) {
	structure := stpa.NewADSStructure()
	if err := structure.Validate(); err != nil {
		return "", fmt.Errorf("avfda: %w", err)
	}
	var out string
	for _, sc := range []stpa.Scenario{stpa.CaseStudyI(), stpa.CaseStudyII()} {
		a, err := structure.Analyze(sc)
		if err != nil {
			return "", fmt.Errorf("avfda: %w", err)
		}
		out += a.Render() + "\n"
	}
	return out, nil
}

// MissionModel fits the stochastic fault-injection model (the paper's
// proposed future-work direction) to this study's failure database, using
// the median US trip length as the mission.
func (s *Study) MissionModel() (mission.Model, error) {
	return mission.Fit(s.res.DB, calib.MedianTripMiles)
}

// Manufacturer re-exports the schema identifier type for API consumers.
type Manufacturer = schema.Manufacturer

// PaperTotals returns the headline constants the corpus is calibrated to.
func PaperTotals() (miles float64, disengagements, accidents, vehicles int) {
	return calib.TotalMiles, calib.TotalDisengagements, calib.TotalAccidents, calib.TotalAVs
}

// ClassifyCause runs the paper's NLP stage on a single free-text
// disengagement cause, returning the fault tag and failure category names.
func ClassifyCause(cause string) (tag, category string, err error) {
	cls, err := nlp.NewClassifier(nlp.SeedDictionary(), nlp.DefaultOptions())
	if err != nil {
		return "", "", fmt.Errorf("avfda: %w", err)
	}
	res := cls.Classify(cause)
	return res.Tag.String(), res.Category.String(), nil
}

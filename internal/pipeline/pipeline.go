// Package pipeline wires the four stages of the paper's Fig. 1 together:
//
//	Stage I   data collection  — synthetic corpus (package synth) rendered
//	                             to scanned documents (package scandoc)
//	Stage II  digitization     — OCR with noise + manual fallback (ocr),
//	                             parsing/normalization (parse)
//	Stage III NLP              — failure dictionary + voting classifier
//	                             (nlp), optionally corpus-expanded
//	Stage IV  analysis         — consolidated failure DB (core)
//
// The result carries per-stage diagnostics (OCR artifacts, parse defects,
// tag-recovery accuracy against the planted ground truth) so experiments
// can attribute end-to-end error to individual stages, plus per-stage
// wall-clock timings (StageTimings) so runs report where time goes.
//
// # Concurrency model
//
// Stage II fans out across bounded worker pools sized by Config.Workers
// (<= 0 selects GOMAXPROCS, 1 forces sequential execution): OCR decoding
// (ocr.DecodeAllConcurrent) and parsing (parse.ParseConcurrent, one worker
// per document). Both are deterministic by construction — OCR noise is
// derived per document, and documents parse into private fragments merged
// in input order — so pipeline output is byte-identical for any worker
// count and any seed. Stages III and IV run sequentially. Stage III costs
// what the distinct cause texts cost, not what the events cost: dictionary
// expansion and classification each handle a repeated text once
// (nlp.Expand, nlp.Classifier.ClassifyAll), which leaves too little work
// to pay for a fan-out. Consolidation is a cheap ordered assembly.
package pipeline

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"avfda/internal/core"
	"avfda/internal/nlp"
	"avfda/internal/ocr"
	"avfda/internal/ontology"
	"avfda/internal/parse"
	"avfda/internal/scandoc"
	"avfda/internal/schema"
	"avfda/internal/synth"
)

// Config parameterizes an end-to-end run.
type Config struct {
	// Synth configures corpus generation (Stage I).
	Synth synth.Config
	// OCR configures the digitization noise model (Stage II).
	OCR ocr.Config
	// NLP configures the classifier (Stage III).
	NLP nlp.Options
	// ExpandDictionary enables the corpus-mining dictionary passes the
	// paper describes ("several passes over the dataset").
	ExpandDictionary bool
	// Expand tunes the expansion when enabled.
	Expand nlp.ExpandOptions
	// Workers bounds the worker pools of the concurrent stages (OCR
	// decoding and parsing). <= 0 selects GOMAXPROCS and 1 forces
	// sequential execution; output is identical at any setting.
	Workers int
}

// DefaultConfig returns the configuration used for the reproduction runs.
func DefaultConfig() Config {
	return Config{
		Synth:            synth.Config{Seed: 1},
		OCR:              ocr.DefaultConfig(),
		NLP:              nlp.DefaultOptions(),
		ExpandDictionary: true,
	}
}

// StageTimings records per-stage wall-clock time for one pipeline run.
// Stages that did not execute (Synth under RunOnCorpus, Render and OCR
// under RunOnDocuments, Expand when dictionary expansion is disabled) stay
// zero.
type StageTimings struct {
	// Synth is Stage I corpus generation (Run only).
	Synth time.Duration
	// Render is the corpus-to-scanned-documents step.
	Render time.Duration
	// OCR is document decoding plus digitization-stat aggregation.
	OCR time.Duration
	// Parse is normalization of decoded text into schema form.
	Parse time.Duration
	// Expand is the corpus-mining dictionary expansion passes.
	Expand time.Duration
	// Classify is classifier construction plus cause classification.
	Classify time.Duration
	// Build is the ordered consolidation into the failure database.
	Build time.Duration
}

// Total sums the recorded stage timings. Result.Elapsed equals it.
func (s StageTimings) Total() time.Duration {
	return s.Synth + s.Render + s.OCR + s.Parse + s.Expand + s.Classify + s.Build
}

// String renders the nonzero stages compactly, in pipeline order.
func (s StageTimings) String() string {
	var b strings.Builder
	add := func(name string, d time.Duration) {
		if d == 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", name, d.Round(time.Microsecond))
	}
	add("synth", s.Synth)
	add("render", s.Render)
	add("ocr", s.OCR)
	add("parse", s.Parse)
	add("expand", s.Expand)
	add("classify", s.Classify)
	add("build", s.Build)
	return b.String()
}

// OCRStats aggregates digitization diagnostics across all documents.
type OCRStats struct {
	Documents         int
	Pages             int
	ManualPages       int
	Substitutions     int
	DroppedSeparators int
	MergedLines       int
	MeanConfidence    float64
}

// Accuracy scores recovered tags against the planted ground truth, matched
// by (manufacturer, vehicle, timestamp).
type Accuracy struct {
	// Matched counts recovered events that were matched to a truth event.
	Matched int
	// TagCorrect and CategoryCorrect count matched events whose recovered
	// tag/category equals the planted one.
	TagCorrect      int
	CategoryCorrect int
	// Confusion counts matched events by (planted, recovered) tag pair —
	// the classifier's confusion matrix.
	Confusion map[[2]ontology.Tag]int
}

// TopConfusions returns the most frequent off-diagonal confusion pairs,
// most common first, at most n entries.
func (a Accuracy) TopConfusions(n int) []ConfusionPair {
	var out []ConfusionPair
	for pair, count := range a.Confusion {
		if pair[0] == pair[1] {
			continue
		}
		out = append(out, ConfusionPair{Want: pair[0], Got: pair[1], Count: count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Want != out[j].Want {
			return out[i].Want < out[j].Want
		}
		return out[i].Got < out[j].Got
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// ConfusionPair is one off-diagonal confusion-matrix cell.
type ConfusionPair struct {
	Want, Got ontology.Tag
	Count     int
}

// TagAccuracy returns the tag-level recovery rate.
func (a Accuracy) TagAccuracy() float64 {
	if a.Matched == 0 {
		return 0
	}
	return float64(a.TagCorrect) / float64(a.Matched)
}

// CategoryAccuracy returns the category-level recovery rate.
func (a Accuracy) CategoryAccuracy() float64 {
	if a.Matched == 0 {
		return 0
	}
	return float64(a.CategoryCorrect) / float64(a.Matched)
}

// Result is the output of a pipeline run.
type Result struct {
	// Truth is the generated corpus with planted labels (Stage I).
	Truth *synth.Truth
	// Recovered is the corpus as reconstructed by Stage II.
	Recovered *schema.Corpus
	// DB is the consolidated failure database (Stage III+IV input).
	DB *core.DB
	// ParseReport carries Stage II defects.
	ParseReport *parse.Report
	// OCR carries Stage II digitization diagnostics.
	OCR OCRStats
	// Accuracy scores Stage III against the planted labels.
	Accuracy Accuracy
	// DictionarySize is the final failure-dictionary size (after
	// expansion when enabled).
	DictionarySize int
	// Stages breaks the run's wall-clock time down per stage.
	Stages StageTimings
	// Elapsed is the sum of the recorded stage timings (Stages.Total())
	// in Run, RunOnCorpus and RunOnDocuments.
	Elapsed time.Duration
}

// Run executes the full pipeline. Result.Elapsed is the sum of the stage
// timings, Stage I included; the accuracy scoring against the planted
// ground truth is diagnostics, not a pipeline stage, and is not counted.
//
// Cancelling ctx stops the run between stages and inside the concurrent
// OCR fan-out; the error then wraps ctx.Err() so callers can classify it
// with errors.Is(err, context.Canceled).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	mark := time.Now()
	truth, err := synth.Generate(cfg.Synth)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage I: %w", err)
	}
	synthElapsed := time.Since(mark)
	res, err := RunOnCorpus(ctx, cfg, &truth.Corpus)
	if err != nil {
		return nil, err
	}
	res.Truth = truth
	res.Accuracy = scoreAccuracy(truth, res.DB)
	res.Stages.Synth = synthElapsed
	res.Elapsed = res.Stages.Total()
	return res, nil
}

// RunOnCorpus executes Stages II-IV on an existing normalized corpus: it
// renders the corpus to documents, digitizes them, and hands the decoded
// text to RunOnDocuments. Use this entry point for real (non-synthetic)
// data that has already been transcribed into schema form. Result.Elapsed
// is the sum of the Stage II-IV timings (Stages.Synth stays zero). The
// context governs the whole run as in Run.
func RunOnCorpus(ctx context.Context, cfg Config, corpus *schema.Corpus) (*Result, error) {
	mark := time.Now()
	docs := scandoc.Render(corpus)
	renderElapsed := time.Since(mark)

	engine, err := ocr.NewEngine(cfg.OCR)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage II (ocr): %w", err)
	}
	// Per-document noise derivation makes parallel decoding byte-identical
	// to sequential, so digitization fans out across cores.
	mark = time.Now()
	decoded, err := engine.DecodeAllConcurrent(ctx, docs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage II (ocr): %w", err)
	}
	var ocrStats OCRStats
	var confSum float64
	inputs := make([]parse.Input, 0, len(decoded))
	for _, d := range decoded {
		ocrStats.Documents++
		ocrStats.Pages += d.TotalPages
		ocrStats.ManualPages += d.ManualPages
		ocrStats.Substitutions += d.Substitutions
		ocrStats.DroppedSeparators += d.DroppedSeparators
		ocrStats.MergedLines += d.MergedLines
		confSum += d.Confidence
		inputs = append(inputs, parse.Input{DocID: d.DocID, Lines: d.Lines})
	}
	if ocrStats.Documents > 0 {
		ocrStats.MeanConfidence = confSum / float64(ocrStats.Documents)
	}
	ocrElapsed := time.Since(mark)

	res, err := RunOnDocuments(ctx, cfg, inputs)
	if err != nil {
		return nil, err
	}
	res.OCR = ocrStats
	res.Stages.Render = renderElapsed
	res.Stages.OCR = ocrElapsed
	res.Elapsed = res.Stages.Total()
	return res, nil
}

// RunOnDocuments executes Stages II-IV from digitized text: it parses the
// documents, classifies, and consolidates. Use this entry point for
// documents already decoded to lines, such as the pages avgen writes.
// Result.Elapsed is the sum of the parse, NLP and build timings; Result.OCR
// stays zero. The context governs the whole run as in Run.
func RunOnDocuments(ctx context.Context, cfg Config, inputs []parse.Input) (*Result, error) {
	var st StageTimings
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: cancelled before stage II (parse): %w", err)
	}
	mark := time.Now()
	recovered, parseReport, err := parse.ParseConcurrent(inputs, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage II (parse): %w", err)
	}
	st.Parse = time.Since(mark)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: cancelled before stage III: %w", err)
	}
	causes := make([]string, len(recovered.Disengagements))
	for i, d := range recovered.Disengagements {
		causes[i] = d.Cause
	}
	dict := nlp.SeedDictionary()
	if cfg.ExpandDictionary {
		mark = time.Now()
		expanded, _, err := nlp.Expand(dict, causes, cfg.NLP, cfg.Expand)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage III (expand): %w", err)
		}
		dict = expanded
		st.Expand = time.Since(mark)
	}
	mark = time.Now()
	cls, err := nlp.NewClassifier(dict, cfg.NLP)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage III: %w", err)
	}
	classified := cls.ClassifyAll(causes)
	tags := make([]ontology.Tag, len(classified))
	for i, r := range classified {
		tags[i] = r.Tag
	}
	st.Classify = time.Since(mark)

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pipeline: cancelled before stage IV: %w", err)
	}
	mark = time.Now()
	db, err := core.BuildWithTags(recovered, tags)
	if err != nil {
		return nil, fmt.Errorf("pipeline: stage IV: %w", err)
	}
	st.Build = time.Since(mark)
	return &Result{
		Recovered:      recovered,
		DB:             db,
		ParseReport:    parseReport,
		DictionarySize: dict.Size(),
		Stages:         st,
		Elapsed:        st.Total(),
	}, nil
}

// eventKey identifies a disengagement across the truth/recovered corpora.
type eventKey struct {
	m schema.Manufacturer
	v schema.VehicleID
	t int64
}

// scoreAccuracy matches recovered events to planted ones and scores tag and
// category recovery.
func scoreAccuracy(truth *synth.Truth, db *core.DB) Accuracy {
	want := make(map[eventKey]ontology.Tag, len(truth.Tags))
	for i, d := range truth.Corpus.Disengagements {
		want[eventKey{d.Manufacturer, d.Vehicle, d.Time.Unix()}] = truth.Tags[i]
	}
	acc := Accuracy{Confusion: make(map[[2]ontology.Tag]int)}
	for _, e := range db.Events {
		tag, ok := want[eventKey{e.Manufacturer, e.Vehicle, e.Time.Unix()}]
		if !ok {
			continue
		}
		acc.Matched++
		acc.Confusion[[2]ontology.Tag{tag, e.Tag}]++
		if e.Tag == tag {
			acc.TagCorrect++
		}
		if ontology.CategoryOf(tag) == e.Category {
			acc.CategoryCorrect++
		}
	}
	return acc
}

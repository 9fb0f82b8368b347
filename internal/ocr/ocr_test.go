package ocr

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"avfda/internal/scandoc"
)

func docOf(lines []string, handwritten bool) *scandoc.Document {
	return &scandoc.Document{
		ID:    "test-doc",
		Kind:  scandoc.DisengagementReport,
		Pages: []scandoc.Page{{Lines: lines, Handwritten: handwritten}},
	}
}

func TestCleanConfigIsIdentity(t *testing.T) {
	eng, err := NewEngine(Clean())
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		"Manufacturer: Waymo",
		"2015-03-14 10:22:31 | Waymo-1-car01 | Manual | highway | sunny | 0.832 s | cause text",
	}
	res := eng.Decode(docOf(lines, false))
	if res.Confidence != 1 {
		t.Errorf("clean confidence = %g", res.Confidence)
	}
	if res.Substitutions+res.DroppedSeparators+res.MergedLines != 0 {
		t.Error("clean decode introduced artifacts")
	}
	for i, l := range res.Lines {
		if l != lines[i] {
			t.Errorf("line %d altered: %q", i, l)
		}
	}
}

func TestNoisyDecodeIntroducesArtifacts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstitutionRate = 0.05
	cfg.SeparatorDropRate = 0.05
	cfg.ManualThreshold = 0 // never fall back, we want raw noise
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = "2015-03-14 10:22:31 | Waymo-1-car01 | Manual | highway | sunny | 0.832 s | lidar failed to localize"
	}
	res := eng.Decode(docOf(lines, false))
	if res.Substitutions == 0 {
		t.Error("no substitutions at 5% rate")
	}
	if res.DroppedSeparators == 0 {
		t.Error("no dropped separators at 5% rate")
	}
	if res.Confidence >= 1 {
		t.Error("confidence should drop under noise")
	}
}

func TestManualFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstitutionRate = 0.5 // catastrophic scan quality
	cfg.ManualThreshold = 0.95
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{strings.Repeat("S150O1l2 ", 20)}
	res := eng.Decode(docOf(lines, false))
	if res.ManualPages != 1 {
		t.Fatalf("manual pages = %d, want 1", res.ManualPages)
	}
	// Manual transcription returns ground truth.
	if res.Lines[0] != lines[0] {
		t.Error("manual fallback should return the original text")
	}
	// Manually transcribed pages contribute no artifacts.
	if res.Substitutions != 0 {
		t.Error("manual page artifacts should not be counted")
	}
}

func TestHandwrittenPagesDegradeMore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstitutionRate = 0.02
	cfg.HandwrittenFactor = 8
	cfg.ManualThreshold = 0
	line := strings.Repeat("the vehicle stopped and the other car collided 015 ", 10)

	var printedSubs, handSubs int
	const trials = 30
	for seed := int64(0); seed < trials; seed++ {
		cfg.Seed = seed
		engP, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		printedSubs += engP.Decode(docOf([]string{line}, false)).Substitutions
		cfg.Seed = seed + 1000
		engH, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		handSubs += engH.Decode(docOf([]string{line}, true)).Substitutions
	}
	if handSubs <= printedSubs*2 {
		t.Errorf("handwritten subs %d not clearly above printed %d", handSubs, printedSubs)
	}
}

func TestLineMerge(t *testing.T) {
	cfg := Clean()
	cfg.LineMergeRate = 1 // merge everything
	cfg.ManualThreshold = 0
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Decode(docOf([]string{"aaa", "bbb", "ccc"}, false))
	if len(res.Lines) != 1 {
		t.Fatalf("lines after full merge = %d, want 1", len(res.Lines))
	}
	if res.Lines[0] != "aaa bbb ccc" {
		t.Errorf("merged line = %q", res.Lines[0])
	}
	if res.MergedLines != 2 {
		t.Errorf("merge count = %d, want 2", res.MergedLines)
	}
}

func TestDecodeDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstitutionRate = 0.05
	cfg.ManualThreshold = 0
	lines := []string{strings.Repeat("watchdog error 2015 S5 O0 ", 20)}
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Decode(docOf(lines, false))
	rb := b.Decode(docOf(lines, false))
	if ra.Lines[0] != rb.Lines[0] {
		t.Error("same seed produced different decodes")
	}
}

func TestNewEngineValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.SubstitutionRate = 1.5
	if _, err := NewEngine(bad); err == nil {
		t.Error("rate > 1: want error")
	}
	bad = DefaultConfig()
	bad.ManualThreshold = -0.1
	if _, err := NewEngine(bad); err == nil {
		t.Error("negative threshold: want error")
	}
}

func TestDecodeAll(t *testing.T) {
	eng, err := NewEngine(Clean())
	if err != nil {
		t.Fatal(err)
	}
	docs := []scandoc.Document{
		*docOf([]string{"one"}, false),
		*docOf([]string{"two"}, false),
	}
	res := eng.DecodeAll(docs)
	if len(res) != 2 || res[0].Lines[0] != "one" || res[1].Lines[0] != "two" {
		t.Errorf("DecodeAll = %+v", res)
	}
}

// Property: substitution counts grow (statistically) with the rate, and
// confidence falls.
func TestNoiseMonotonicityProperty(t *testing.T) {
	line := strings.Repeat("the vehicle 2015 S5 O0 disengaged on the highway ", 40)
	doc := docOf([]string{line}, false)
	measure := func(rate float64) (subs int, conf float64) {
		for seed := int64(0); seed < 10; seed++ {
			cfg := Clean()
			cfg.SubstitutionRate = rate
			cfg.ManualThreshold = 0
			cfg.Seed = seed
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := eng.Decode(doc)
			subs += res.Substitutions
			conf += res.Confidence
		}
		return subs, conf / 10
	}
	prevSubs := -1
	prevConf := 2.0
	for _, rate := range []float64{0, 0.005, 0.02, 0.08} {
		subs, conf := measure(rate)
		if subs <= prevSubs && rate > 0 {
			t.Errorf("substitutions not increasing at rate %g: %d <= %d", rate, subs, prevSubs)
		}
		if conf > prevConf {
			t.Errorf("confidence increased at rate %g: %g > %g", rate, conf, prevConf)
		}
		prevSubs, prevConf = subs, conf
	}
}

func TestDecodeAllConcurrentMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SubstitutionRate = 0.01
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]scandoc.Document, 40)
	for i := range docs {
		docs[i] = *docOf([]string{
			strings.Repeat("watchdog error 2015 S5 O0 | field | separated ", 8),
			"second line with more content 123",
		}, i%3 == 0)
		docs[i].ID = fmt.Sprintf("doc-%02d", i)
	}
	seq := eng.DecodeAll(docs)
	for _, workers := range []int{0, 1, 2, 7, 64} {
		par, err := eng.DecodeAllConcurrent(context.Background(), docs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results", workers, len(par))
		}
		for i := range seq {
			if par[i].DocID != seq[i].DocID || par[i].Substitutions != seq[i].Substitutions {
				t.Fatalf("workers=%d doc %d: stats differ", workers, i)
			}
			for j := range seq[i].Lines {
				if par[i].Lines[j] != seq[i].Lines[j] {
					t.Fatalf("workers=%d doc %d line %d differs", workers, i, j)
				}
			}
		}
	}
}

func TestDecodeAllConcurrentCancellation(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]scandoc.Document, 100)
	for i := range docs {
		docs[i] = *docOf([]string{strings.Repeat("x", 2000)}, false)
		docs[i].ID = fmt.Sprintf("doc-%03d", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: must return promptly with the ctx error
	if _, err := eng.DecodeAllConcurrent(ctx, docs, 4); err == nil {
		t.Error("canceled context: want error")
	}
	if _, err := eng.DecodeAllConcurrent(ctx, docs, 1); err == nil {
		t.Error("canceled context, single worker: want error")
	}
}

func TestEmptyDocument(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := eng.Decode(&scandoc.Document{ID: "empty"})
	if res.Confidence != 1 || len(res.Lines) != 0 {
		t.Errorf("empty doc decode: %+v", res)
	}
}

// TestConfusionTableMatchesMap pins the ASCII-indexed confusion table to
// the character map it replaced.
func TestConfusionTableMatchesMap(t *testing.T) {
	want := map[rune][]rune{
		'0': {'O'}, 'O': {'0'},
		'1': {'l', 'I'}, 'l': {'1'}, 'I': {'1', 'l'},
		'5': {'S'}, 'S': {'5'},
		'8': {'B'}, 'B': {'8'},
		'2': {'Z'}, 'Z': {'2'},
		'6': {'G'}, 'G': {'6'},
		'g': {'q'}, 'q': {'g'},
		'e': {'c'}, 'c': {'e'},
		'n': {'h'}, 'h': {'n'},
		'u': {'v'}, 'v': {'u'},
		'a': {'o'},
		't': {'f'}, 'f': {'t'},
	}
	for r := range confusions {
		alts, ok := want[rune(r)]
		if !ok && confusions[r] != nil || ok && string(confusions[r]) != string(alts) {
			t.Errorf("confusions[%q] = %q, want %q", rune(r), string(confusions[r]), string(alts))
		}
	}
}

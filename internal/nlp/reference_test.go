package nlp

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"avfda/internal/ocr"
	"avfda/internal/ontology"
	"avfda/internal/parse"
	"avfda/internal/scandoc"
	"avfda/internal/synth"
)

// refClassifier is the per-tag voting classifier the inverted index
// replaced: every Classify walks every keyword of every tag. It is kept
// as the reference the fast path must match result for result.
type refClassifier struct {
	tok      *Tokenizer
	opts     Options
	unigrams map[ontology.Tag]map[string]struct{}
	bigrams  map[ontology.Tag]map[string]struct{}
}

func newRefClassifier(dict *Dictionary, opts Options) *refClassifier {
	if opts.BigramWeight <= 0 {
		opts.BigramWeight = 2
	}
	if opts.TieBreak == 0 {
		opts.TieBreak = TieBreakPriority
	}
	c := &refClassifier{
		tok:      &Tokenizer{Stem: opts.Stem},
		opts:     opts,
		unigrams: make(map[ontology.Tag]map[string]struct{}),
		bigrams:  make(map[ontology.Tag]map[string]struct{}),
	}
	for _, tag := range dict.Tags() {
		uni := make(map[string]struct{})
		bi := make(map[string]struct{})
		for _, phrase := range dict.Phrases(tag) {
			toks := c.tok.Tokens(phrase)
			for _, t := range toks {
				uni[t] = struct{}{}
			}
			for i := 0; i+1 < len(toks); i++ {
				bi[toks[i]+" "+toks[i+1]] = struct{}{}
			}
		}
		for _, phrase := range dict.BigramOnlyPhrases(tag) {
			toks := c.tok.Tokens(phrase)
			for i := 0; i+1 < len(toks); i++ {
				bi[toks[i]+" "+toks[i+1]] = struct{}{}
			}
		}
		c.unigrams[tag] = uni
		c.bigrams[tag] = bi
	}
	return c
}

func (c *refClassifier) Classify(text string) Result {
	tokens := c.tok.Tokens(text)
	tokenSet := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		tokenSet[t] = struct{}{}
	}
	bigramSet := make(map[string]struct{}, len(tokens))
	for i := 0; i+1 < len(tokens); i++ {
		bigramSet[tokens[i]+" "+tokens[i+1]] = struct{}{}
	}
	best := Result{Tag: ontology.TagUnknownT, Category: ontology.CategoryUnknownC}
	bestRank := int(^uint(0) >> 1)
	for _, tag := range tagPriority {
		uni, ok := c.unigrams[tag]
		if !ok {
			continue
		}
		var score int
		var matched []string
		for kw := range uni {
			if _, hit := tokenSet[kw]; hit {
				score++
				matched = append(matched, kw)
			}
		}
		for kw := range c.bigrams[tag] {
			if _, hit := bigramSet[kw]; hit {
				score += c.opts.BigramWeight
				matched = append(matched, kw)
			}
		}
		if score == 0 {
			continue
		}
		rank := priorityRank(tag)
		if c.opts.TieBreak == TieBreakFirstMatch {
			rank = int(tag)
		}
		if score > best.Score || (score == best.Score && rank < bestRank) {
			sort.Strings(matched)
			best = Result{Tag: tag, Category: ontology.CategoryOf(tag), Score: score, Matched: matched}
			bestRank = rank
		}
	}
	return best
}

// refExpand is the per-occurrence expansion loop Expand replaced: each
// pass tokenizes and counts every corpus text, duplicates included. Only
// the reference classification is memoized per pass, to keep the test
// fast; it is a pure function of the text.
func refExpand(dict *Dictionary, corpus []string, opts Options, eo ExpandOptions) (*Dictionary, int) {
	eo = eo.withDefaults()
	out := dict.Clone()
	added := 0
	for pass := 0; pass < eo.Passes; pass++ {
		cls := newRefClassifier(out, opts)
		memo := make(map[string]Result)
		counts := make(map[string]map[ontology.Tag]int)
		totals := make(map[string]int)
		for _, text := range corpus {
			res, ok := memo[text]
			if !ok {
				res = cls.Classify(text)
				memo[text] = res
			}
			for _, bg := range bigrams(cls.tok.Tokens(text)) {
				totals[bg]++
				if res.Tag == ontology.TagUnknownT {
					continue
				}
				m := counts[bg]
				if m == nil {
					m = make(map[ontology.Tag]int)
					counts[bg] = m
				}
				m[res.Tag]++
			}
		}
		candidates := make([]string, 0, len(counts))
		for bg := range counts {
			candidates = append(candidates, bg)
		}
		sort.Strings(candidates)
		passAdded := 0
		for _, bg := range candidates {
			if totals[bg] < eo.MinCount {
				continue
			}
			var bestTag ontology.Tag
			bestCount := 0
			for tag, n := range counts[bg] {
				if n > bestCount || (n == bestCount && tag < bestTag) {
					bestTag, bestCount = tag, n
				}
			}
			if float64(bestCount)/float64(totals[bg]) < eo.MinConcentration {
				continue
			}
			if _, known := cls.bigrams[bestTag][bg]; known {
				continue
			}
			out.AddBigramOnly(bestTag, bg)
			passAdded++
		}
		added += passAdded
		if passAdded == 0 {
			break
		}
	}
	return out, added
}

// studyCauses returns every recovered disengagement cause of seeds 1-3,
// OCR variants and duplicates included, digitized as the pipeline does.
func studyCauses(t *testing.T) []string {
	t.Helper()
	var causes []string
	for seed := int64(1); seed <= 3; seed++ {
		truth, err := synth.Generate(synth.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ocr.DefaultConfig()
		cfg.Seed = seed
		engine, err := ocr.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := engine.DecodeAllConcurrent(context.Background(), scandoc.Render(&truth.Corpus), 0)
		if err != nil {
			t.Fatal(err)
		}
		inputs := make([]parse.Input, len(decoded))
		for i, d := range decoded {
			inputs[i] = parse.Input{DocID: d.DocID, Lines: d.Lines}
		}
		corpus, _, err := parse.ParseConcurrent(inputs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range corpus.Disengagements {
			causes = append(causes, d.Cause)
		}
	}
	return causes
}

// edgeTexts are inputs the field corpus may not contain.
var edgeTexts = []string{
	"",
	"the and of driver safely disengaged",
	"watchdog watchdog watchdog error error",
	"watchdog error watchdog error",
	"software",
	"x",
	"ambiguous marker observed",
	"software crash watchdog error sensor dropout construction zone",
}

// dictEqual compares two dictionaries list by list, in order.
func dictEqual(t *testing.T, got, want *Dictionary) {
	t.Helper()
	if !reflect.DeepEqual(got.Tags(), want.Tags()) {
		t.Fatalf("tags %v, want %v", got.Tags(), want.Tags())
	}
	for _, tag := range want.Tags() {
		if g, w := got.Phrases(tag), want.Phrases(tag); !reflect.DeepEqual(g, w) {
			t.Errorf("%s phrases %q, want %q", tag, g, w)
		}
		if g, w := got.BigramOnlyPhrases(tag), want.BigramOnlyPhrases(tag); !reflect.DeepEqual(g, w) {
			t.Errorf("%s bigram-only phrases %q, want %q", tag, g, w)
		}
	}
}

func TestClassifierMatchesReference(t *testing.T) {
	causes := studyCauses(t)
	texts := append(append([]string(nil), causes...), edgeTexts...)
	expanded, _, err := Expand(SeedDictionary(), causes, DefaultOptions(), ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Equal votes for two tags exercise both tie-break policies.
	tied := SeedDictionary()
	tied.Add(ontology.TagEnvironment, "ambiguous marker")
	tied.Add(ontology.TagHangCrash, "ambiguous marker")
	for _, dict := range []struct {
		name string
		d    *Dictionary
	}{{"seed", SeedDictionary()}, {"expanded", expanded}, {"tied", tied}} {
		for _, opts := range []struct {
			name string
			o    Options
		}{
			{"default", DefaultOptions()},
			{"no-stem", Options{Stem: false, TieBreak: TieBreakPriority, BigramWeight: 2}},
			{"first-match", Options{Stem: true, TieBreak: TieBreakFirstMatch, BigramWeight: 2}},
			{"bigram-1", Options{Stem: true, TieBreak: TieBreakPriority, BigramWeight: 1}},
			{"bigram-3", Options{Stem: true, TieBreak: TieBreakPriority, BigramWeight: 3}},
		} {
			cls, err := NewClassifier(dict.d, opts.o)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefClassifier(dict.d, opts.o)
			want := make(map[string]Result)
			for _, text := range texts {
				if _, done := want[text]; done {
					continue
				}
				want[text] = ref.Classify(text)
				if got := cls.Classify(text); !reflect.DeepEqual(got, want[text]) {
					t.Fatalf("%s/%s: Classify(%q) = %+v, want %+v", dict.name, opts.name, text, got, want[text])
				}
			}
			all := cls.ClassifyAll(texts)
			for i, text := range texts {
				if !reflect.DeepEqual(all[i], want[text]) {
					t.Fatalf("%s/%s: ClassifyAll[%d] (%q) = %+v, want %+v", dict.name, opts.name, i, text, all[i], want[text])
				}
			}
		}
	}
}

func TestExpandMatchesReference(t *testing.T) {
	causes := append(studyCauses(t), edgeTexts...)
	for _, eo := range []ExpandOptions{{}, {MinCount: 2, Passes: 4}} {
		for _, opts := range []Options{DefaultOptions(), {Stem: false}} {
			got, gotAdded, err := Expand(SeedDictionary(), causes, opts, eo)
			if err != nil {
				t.Fatal(err)
			}
			want, wantAdded := refExpand(SeedDictionary(), causes, opts, eo)
			if gotAdded != wantAdded {
				t.Errorf("%+v %+v: added %d, want %d", eo, opts, gotAdded, wantAdded)
			}
			dictEqual(t, got, want)
		}
	}
}

func TestClassifyAllResultsDoNotShareMatched(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := "software crash after watchdog error"
	res := cls.ClassifyAll([]string{text, text, text})
	want := cls.Classify(text)
	if len(res[0].Matched) == 0 {
		t.Fatalf("no keywords matched %q", text)
	}
	res[0].Matched[0] = "mutated"
	res[0].Matched = append(res[0].Matched, "appended")
	for i := 1; i < len(res); i++ {
		if !reflect.DeepEqual(res[i], want) {
			t.Errorf("result %d = %+v after mutating result 0, want %+v", i, res[i], want)
		}
	}
	if again := cls.ClassifyAll([]string{text}); !reflect.DeepEqual(again[0], want) {
		t.Errorf("fresh ClassifyAll = %+v, want %+v", again[0], want)
	}
}

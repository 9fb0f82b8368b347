package nlp

import (
	"errors"
	"slices"
	"sort"

	"avfda/internal/ontology"
)

// TieBreak selects how the classifier resolves equal vote counts between
// tags.
type TieBreak int

// Tie-break policies (the ablation benches compare them).
const (
	// TieBreakPriority prefers the more specific tag per tagPriority.
	TieBreakPriority TieBreak = iota + 1
	// TieBreakFirstMatch prefers the lowest-numbered tag (arbitrary but
	// deterministic), modeling a naive implementation.
	TieBreakFirstMatch
)

// tagPriority orders tags from most to least specific for tie-breaking:
// narrow hardware/watchdog vocabulary outranks broad environment phrasing.
var tagPriority = [...]ontology.Tag{
	ontology.TagHangCrash,
	ontology.TagNetwork,
	ontology.TagSensor,
	ontology.TagComputerSystem,
	ontology.TagSoftware,
	ontology.TagAVControllerSystem,
	ontology.TagAVControllerML,
	ontology.TagIncorrectBehaviorPrediction,
	ontology.TagRecognitionSystem,
	ontology.TagPlanner,
	ontology.TagDesignBug,
	ontology.TagEnvironment,
}

// priorityRank returns the tie-break rank of t (lower wins).
func priorityRank(t ontology.Tag) int {
	for i, p := range tagPriority {
		if p == t {
			return i
		}
	}
	return len(tagPriority)
}

// Options configures a Classifier.
type Options struct {
	// Stem toggles Porter stemming (ablation: accuracy drops without it).
	Stem bool
	// TieBreak selects the tie resolution policy.
	TieBreak TieBreak
	// BigramWeight is the vote weight of a matched bigram relative to a
	// matched unigram (default 2).
	BigramWeight int
}

// DefaultOptions returns the configuration used for the paper reproduction.
func DefaultOptions() Options {
	return Options{Stem: true, TieBreak: TieBreakPriority, BigramWeight: 2}
}

// Classifier assigns fault tags to disengagement cause texts by keyword
// voting against a failure dictionary. It is safe for concurrent use.
type Classifier struct {
	tok  *Tokenizer
	opts Options
	// index maps each dictionary keyword, normalized through tok, to the
	// tagPriority ranks of the tags it votes for. Unigram keys are single
	// tokens and bigram keys are two tokens joined by a space, so the two
	// kinds never collide.
	index map[string][]int
}

// Result is one classification outcome.
type Result struct {
	Tag      ontology.Tag
	Category ontology.Category
	// Score is the winning vote count (0 for Unknown-T).
	Score int
	// Matched lists the dictionary keywords that voted for the winning
	// tag, sorted.
	Matched []string
}

// NewClassifier compiles dict into a voting classifier. The dictionary is
// normalized through the classifier's tokenizer, so stemming configuration
// applies consistently to both dictionary and inputs.
func NewClassifier(dict *Dictionary, opts Options) (*Classifier, error) {
	return newClassifier(dict, opts, nil)
}

// newClassifier is NewClassifier normalizing the dictionary through a
// tokenizer that memoizes its stems in stems, or in a map of its own when
// stems is nil.
func newClassifier(dict *Dictionary, opts Options, stems map[string]string) (*Classifier, error) {
	if dict == nil {
		return nil, errors.New("nlp: nil dictionary")
	}
	if opts.BigramWeight <= 0 {
		opts.BigramWeight = 2
	}
	if opts.TieBreak == 0 {
		opts.TieBreak = TieBreakPriority
	}
	c := &Classifier{
		tok:   &Tokenizer{Stem: opts.Stem},
		opts:  opts,
		index: make(map[string][]int),
	}
	tok := c.tok.withStems(stems)
	add := func(kw string, rank int) {
		if ranks := c.index[kw]; len(ranks) == 0 || ranks[len(ranks)-1] != rank {
			c.index[kw] = append(ranks, rank)
		}
	}
	// Only tags in tagPriority can win a vote, so only they are indexed.
	// Walking tags rank by rank keeps each keyword's rank list sorted and
	// lets add drop a keyword repeated within one tag.
	for rank, tag := range tagPriority {
		for _, phrase := range dict.Phrases(tag) {
			toks := tok.Tokens(phrase)
			for _, t := range toks {
				add(t, rank)
			}
			for _, bg := range bigrams(toks) {
				add(bg, rank)
			}
		}
		// Mined phrases vote only as exact bigrams (see Dictionary).
		for _, phrase := range dict.BigramOnlyPhrases(tag) {
			for _, bg := range bigrams(tok.Tokens(phrase)) {
				add(bg, rank)
			}
		}
	}
	return c, nil
}

// Classify maps one cause text to a fault tag and category. Texts sharing
// no keyword with any tag return Unknown-T / Unknown-C with score 0.
func (c *Classifier) Classify(text string) Result { return c.classify(c.tok, text) }

// classify is Classify tokenizing through tok.
func (c *Classifier) classify(tok *Tokenizer, text string) Result {
	toks := tok.Tokens(text)
	return c.vote(toks, bigrams(toks))
}

// vote scores a text, given as its tokens and their adjacent bigrams
// (pairs), by looking each up in the keyword index, so its cost grows with
// the text and not with the dictionary. A keyword votes once however often it
// occurs: a unigram adds 1 and a bigram adds BigramWeight to every tag it
// belongs to. The highest score wins; equal scores go to the lower
// tagPriority rank, or to the lower tag number under TieBreakFirstMatch.
func (c *Classifier) vote(tokens, pairs []string) Result {
	var scores [len(tagPriority)]int
	var matched [len(tagPriority)][]string
	hit := func(kw string, weight int) {
		ranks := c.index[kw]
		// A keyword always votes for all its ranks together, so the
		// first rank's list tells whether it has voted already.
		if len(ranks) == 0 || slices.Contains(matched[ranks[0]], kw) {
			return
		}
		for _, r := range ranks {
			scores[r] += weight
			matched[r] = append(matched[r], kw)
		}
	}
	for _, t := range tokens {
		hit(t, 1)
	}
	for _, bg := range pairs {
		hit(bg, c.opts.BigramWeight)
	}

	best, bestRank := -1, 0
	for r, score := range scores {
		if score == 0 {
			continue
		}
		rank := r
		if c.opts.TieBreak == TieBreakFirstMatch {
			rank = int(tagPriority[r])
		}
		if best < 0 || score > scores[best] || (score == scores[best] && rank < bestRank) {
			best, bestRank = r, rank
		}
	}
	if best < 0 {
		return Result{Tag: ontology.TagUnknownT, Category: ontology.CategoryUnknownC}
	}
	tag := tagPriority[best]
	sort.Strings(matched[best])
	return Result{
		Tag:      tag,
		Category: ontology.CategoryOf(tag),
		Score:    scores[best],
		Matched:  matched[best],
	}
}

// ClassifyAll maps each text through Classify, in input order. Each
// distinct text is classified once; its duplicates get copies of that
// result, each with its own Matched slice. Stems are memoized for the
// call.
func (c *Classifier) ClassifyAll(texts []string) []Result {
	tok := c.tok.withStems(nil)
	out := make([]Result, len(texts))
	first := make(map[string]int)
	for i, t := range texts {
		if j, seen := first[t]; seen {
			out[i] = out[j]
			out[i].Matched = slices.Clone(out[j].Matched)
			continue
		}
		first[t] = i
		out[i] = c.classify(tok, t)
	}
	return out
}

// ClassifyAllConcurrent returns ClassifyAll(texts); workers is ignored.
//
// Deprecated: classifying each distinct text once made the fan-out cost
// more than it saved. Use ClassifyAll.
func (c *Classifier) ClassifyAllConcurrent(texts []string, workers int) []Result {
	return c.ClassifyAll(texts)
}

// ExpandOptions configures dictionary expansion passes.
type ExpandOptions struct {
	// MinCount is the minimum corpus frequency for a candidate bigram
	// (default 5).
	MinCount int
	// MinConcentration is the minimum fraction of a bigram's occurrences
	// that must fall in texts already assigned to a single tag (default
	// 0.8).
	MinConcentration float64
	// Passes is the number of classify-extract iterations (default 2),
	// mirroring the paper's "several passes over the dataset".
	Passes int
}

func (o ExpandOptions) withDefaults() ExpandOptions {
	if o.MinCount <= 0 {
		o.MinCount = 5
	}
	if o.MinConcentration <= 0 {
		o.MinConcentration = 0.8
	}
	if o.Passes <= 0 {
		o.Passes = 2
	}
	return o
}

// Expand grows dict by mining the corpus: each pass classifies every text
// with the current dictionary, then promotes bigrams that are frequent and
// concentrated in one tag's texts into that tag's phrase list. It returns
// the expanded dictionary (the input is not modified) and the number of
// phrases added.
//
// Cause texts repeat heavily, so the corpus is first collapsed to its
// distinct texts, each tokenized once; a pass classifies each distinct
// text once and weights its bigram counts by the text's multiplicity, so
// every count is still per occurrence.
func Expand(dict *Dictionary, corpus []string, opts Options, eo ExpandOptions) (*Dictionary, int, error) {
	eo = eo.withDefaults()
	type distinct struct {
		tokens, bigrams []string
		n               int
	}
	// One stem memo serves the corpus and every pass's dictionary.
	tok := (&Tokenizer{Stem: opts.Stem}).withStems(nil)
	var texts []distinct
	slot := make(map[string]int)
	for _, text := range corpus {
		if i, seen := slot[text]; seen {
			texts[i].n++
			continue
		}
		slot[text] = len(texts)
		toks := tok.Tokens(text)
		texts = append(texts, distinct{tokens: toks, bigrams: bigrams(toks), n: 1})
	}

	out := dict.Clone()
	added := 0
	for pass := 0; pass < eo.Passes; pass++ {
		cls, err := newClassifier(out, opts, tok.stems)
		if err != nil {
			return nil, 0, err
		}
		// bigram -> tag -> count over texts assigned to that tag.
		counts := make(map[string]map[ontology.Tag]int)
		totals := make(map[string]int)
		for _, d := range texts {
			res := cls.vote(d.tokens, d.bigrams)
			for _, bg := range d.bigrams {
				totals[bg] += d.n
				if res.Tag == ontology.TagUnknownT {
					continue
				}
				m := counts[bg]
				if m == nil {
					m = make(map[ontology.Tag]int)
					counts[bg] = m
				}
				m[res.Tag] += d.n
			}
		}
		// Promote concentrated bigrams not already known, deterministically.
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
			if slices.Contains(cls.index[bg], priorityRank(bestTag)) {
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
	return out, added, nil
}

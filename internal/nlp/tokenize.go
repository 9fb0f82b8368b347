// Package nlp implements Stage III of the paper's pipeline: mapping the
// free-text disengagement causes written by manufacturers to fault tags and
// failure categories.
//
// The method follows the paper: a failure dictionary of keyword phrases is
// built over the corpus (seeded with hand-verified entries), then a voting
// scheme assigns each cause to the tag sharing the maximum number of
// keywords; causes matching nothing are tagged Unknown-T.
package nlp

import (
	"strings"
	"unicode"
)

// defaultStopwords are high-frequency function words plus report
// boilerplate ("driver safely disengaged and resumed manual control")
// that carries no fault information.
var defaultStopwords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "as": {}, "at": {}, "be": {}, "by": {},
	"for": {}, "from": {}, "in": {}, "into": {}, "is": {}, "it": {},
	"of": {}, "on": {}, "or": {}, "that": {}, "the": {}, "to": {},
	"was": {}, "were": {}, "with": {}, "due": {}, "after": {},
	"during": {}, "while": {}, "result": {}, "resulted": {},
	// Reporting boilerplate common to every log line; keeping these would
	// let the classifier vote on narration instead of the fault.
	"driver": {}, "safely": {}, "disengaged": {}, "disengage": {},
	"disengagement": {}, "resumed": {}, "manual": {}, "control": {},
	"took": {}, "takeover": {}, "request": {}, "mode": {}, "test": {},
	"vehicle": {}, "car": {}, "av": {},
}

// Tokenizer splits raw cause text into normalized tokens.
type Tokenizer struct {
	// Stem applies Porter stemming to each token when true.
	Stem bool
	// stopwords to drop; nil uses the package default set.
	stopwords map[string]struct{}
	// stems, when non-nil, memoizes PorterStem: word to stem. Cause
	// texts repeat a few hundred words, but OCR noise makes the set of
	// words unbounded, so a memo lives for one batch (an Expand, a
	// classifier's dictionary, a ClassifyAll) and a Tokenizer holding
	// one is not safe for concurrent use.
	stems map[string]string
}

// withStems returns a copy of t that memoizes its stems in stems, or in a
// fresh map when stems is nil.
func (t *Tokenizer) withStems(stems map[string]string) *Tokenizer {
	if stems == nil {
		stems = make(map[string]string)
	}
	c := *t
	c.stems = stems
	return &c
}

// Tokens lowercases text, splits it on non-alphanumeric runes, drops
// stopwords and single-character tokens, and (optionally) stems.
func (t *Tokenizer) Tokens(text string) []string {
	stop := t.stopwords
	if stop == nil {
		stop = defaultStopwords
	}
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		if len(f) < 2 {
			continue
		}
		if _, isStop := stop[f]; isStop {
			continue
		}
		if t.Stem {
			f = t.stem(f)
		}
		out = append(out, f)
	}
	return out
}

// stem returns PorterStem(word), through the memo when t has one.
func (t *Tokenizer) stem(word string) string {
	if t.stems == nil {
		return PorterStem(word)
	}
	s, ok := t.stems[word]
	if !ok {
		s = PorterStem(word)
		t.stems[word] = s
	}
	return s
}

// bigrams joins each adjacent pair of toks with a space, in order and with
// repeats.
func bigrams(toks []string) []string {
	if len(toks) < 2 {
		return nil
	}
	out := make([]string, 0, len(toks)-1)
	for i := 0; i+1 < len(toks); i++ {
		out = append(out, toks[i]+" "+toks[i+1])
	}
	return out
}

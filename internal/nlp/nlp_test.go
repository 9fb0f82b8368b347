package nlp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"avfda/internal/ontology"
)

func TestPorterStemKnownPairs(t *testing.T) {
	cases := []struct{ in, want string }{
		{"caresses", "caress"},
		{"ponies", "poni"},
		{"ties", "ti"},
		{"caress", "caress"},
		{"cats", "cat"},
		{"feed", "feed"},
		{"agreed", "agre"},
		{"plastered", "plaster"},
		{"bled", "bled"},
		{"motoring", "motor"},
		{"sing", "sing"},
		{"conflated", "conflat"},
		{"troubled", "troubl"},
		{"sized", "size"},
		{"hopping", "hop"},
		{"tanned", "tan"},
		{"falling", "fall"},
		{"hissing", "hiss"},
		{"fizzed", "fizz"},
		{"failing", "fail"},
		{"filing", "file"},
		{"happy", "happi"},
		{"sky", "sky"},
		{"relational", "relat"},
		{"conditional", "condit"},
		{"rational", "ration"},
		{"valenci", "valenc"},
		{"digitizer", "digit"},
		{"operator", "oper"},
		{"feudalism", "feudal"},
		{"decisiveness", "decis"},
		{"hopefulness", "hope"},
		{"formaliti", "formal"},
		{"formative", "form"},
		{"formalize", "formal"},
		{"electriciti", "electr"},
		{"electrical", "electr"},
		{"hopeful", "hope"},
		{"goodness", "good"},
		{"revival", "reviv"},
		{"allowance", "allow"},
		{"inference", "infer"},
		{"airliner", "airlin"},
		{"adjustable", "adjust"},
		{"defensible", "defens"},
		{"irritant", "irrit"},
		{"replacement", "replac"},
		{"adjustment", "adjust"},
		{"dependent", "depend"},
		{"adoption", "adopt"},
		{"communism", "commun"},
		{"activate", "activ"},
		{"angulariti", "angular"},
		{"homologous", "homolog"},
		{"effective", "effect"},
		{"bowdlerize", "bowdler"},
		{"probate", "probat"},
		{"rate", "rate"},
		{"cease", "ceas"},
		{"controll", "control"},
		{"roll", "roll"},
		// Domain words used by the classifier.
		{"recognition", "recognit"},
		{"perception", "percept"},
		{"planning", "plan"},
		{"prediction", "predict"},
		{"detection", "detect"},
		{"localization", "local"},
	}
	for _, c := range cases {
		if got := PorterStem(c.in); got != c.want {
			t.Errorf("PorterStem(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPorterStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "by"} {
		if got := PorterStem(w); got != w {
			t.Errorf("PorterStem(%q) = %q, want unchanged", w, got)
		}
	}
}

// Property: stemming is idempotent for our dictionary vocabulary class and
// never returns the empty string for inputs >= 3 chars of letters.
func TestPorterStemIdempotentProperty(t *testing.T) {
	words := []string{
		"recognition", "planner", "software", "watchdog", "sensor",
		"localization", "prediction", "environment", "construction",
		"behavior", "vehicles", "detection", "failures", "controller",
		"overloaded", "crashed", "freezing", "misclassified",
	}
	for _, w := range words {
		once := PorterStem(w)
		twice := PorterStem(once)
		if once == "" {
			t.Errorf("PorterStem(%q) = empty", w)
		}
		if once != twice {
			t.Errorf("PorterStem not idempotent on %q: %q -> %q", w, once, twice)
		}
	}
}

func TestTokenizerDropsStopwordsAndBoilerplate(t *testing.T) {
	tok := &Tokenizer{Stem: true}
	got := tok.Tokens("The driver safely disengaged and resumed manual control after a software crash")
	// Everything except "software crash" is stopword/boilerplate.
	if len(got) != 2 || got[0] != PorterStem("software") || got[1] != PorterStem("crash") {
		t.Errorf("Tokens = %v", got)
	}
}

func TestTokenizerNoStem(t *testing.T) {
	tok := &Tokenizer{Stem: false}
	got := tok.Tokens("Recognition failures")
	if len(got) != 2 || got[0] != "recognition" || got[1] != "failures" {
		t.Errorf("unstemmed Tokens = %v", got)
	}
}

func TestTokenizerBigrams(t *testing.T) {
	tok := &Tokenizer{Stem: true}
	bgs := bigrams(tok.Tokens("watchdog timer error"))
	if len(bgs) != 2 {
		t.Fatalf("bigrams = %v", bgs)
	}
	if bigrams(tok.Tokens("watchdog")) != nil {
		t.Error("single token should have no bigrams")
	}
}

func TestSeedDictionaryCoversAllTaggableTags(t *testing.T) {
	d := SeedDictionary()
	for _, tag := range ontology.AllTags() {
		if tag == ontology.TagUnknownT {
			continue
		}
		if len(d.Phrases(tag)) == 0 {
			t.Errorf("seed dictionary has no phrases for %s", tag)
		}
	}
	if d.Size() < 30 {
		t.Errorf("seed dictionary suspiciously small: %d", d.Size())
	}
}

func TestDictionaryAddIgnoresUnknown(t *testing.T) {
	d := NewDictionary()
	d.Add(ontology.TagUnknownT, "anything")
	if d.Size() != 0 {
		t.Error("Unknown-T must not hold phrases")
	}
}

func TestDictionaryCloneIsDeep(t *testing.T) {
	d := SeedDictionary()
	c := d.Clone()
	c.Add(ontology.TagSoftware, "new phrase")
	if len(d.Phrases(ontology.TagSoftware)) == len(c.Phrases(ontology.TagSoftware)) {
		t.Error("Clone shares storage with original")
	}
}

func TestDictionaryTruncate(t *testing.T) {
	d := SeedDictionary()
	tr := d.Truncate(1)
	for _, tag := range tr.Tags() {
		if len(tr.Phrases(tag)) > 1 {
			t.Errorf("Truncate(1) left %d phrases for %s", len(tr.Phrases(tag)), tag)
		}
	}
}

// Table II of the paper: raw log lines and their expected tags/categories.
func TestClassifierPaperTableII(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		log     string
		wantTag ontology.Tag
		wantCat ontology.Category
	}{
		{
			"Software module froze. As a result driver safely disengaged and resumed manual control.",
			ontology.TagSoftware, ontology.CategorySystem,
		},
		{
			"The AV didn't see the lead vehicle, driver safely disengaged and resumed manual control.",
			ontology.TagRecognitionSystem, ontology.CategoryMLDesign,
		},
		{
			"Disengage for a recklessly behaving road user",
			ontology.TagEnvironment, ontology.CategoryMLDesign,
		},
		{
			"Takeover-Request - watchdog error",
			ontology.TagHangCrash, ontology.CategorySystem,
		},
		{
			"incorrect behavior prediction",
			ontology.TagIncorrectBehaviorPrediction, ontology.CategoryMLDesign,
		},
	}
	for _, c := range cases {
		got := cls.Classify(c.log)
		if got.Tag != c.wantTag {
			t.Errorf("Classify(%q).Tag = %s, want %s (matched %v)", c.log, got.Tag, c.wantTag, got.Matched)
		}
		if got.Category != c.wantCat {
			t.Errorf("Classify(%q).Category = %s, want %s", c.log, got.Category, c.wantCat)
		}
		if got.Score == 0 {
			t.Errorf("Classify(%q).Score = 0", c.log)
		}
	}
}

func TestClassifierUnknown(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := cls.Classify("disengagement reported")
	if got.Tag != ontology.TagUnknownT || got.Category != ontology.CategoryUnknownC || got.Score != 0 {
		t.Errorf("vague text classified as %s (%s, score %d)", got.Tag, got.Category, got.Score)
	}
	// Empty text too.
	got = cls.Classify("")
	if got.Tag != ontology.TagUnknownT {
		t.Errorf("empty text -> %s", got.Tag)
	}
}

func TestClassifierNilDictionary(t *testing.T) {
	if _, err := NewClassifier(nil, DefaultOptions()); err == nil {
		t.Error("nil dictionary: want error")
	}
}

func TestClassifierMorphologicalRobustness(t *testing.T) {
	// Stemming should make inflected forms match dictionary entries.
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := cls.Classify("planners produced infeasible paths")
	if got.Tag != ontology.TagPlanner {
		t.Errorf("inflected planner text -> %s (matched %v)", got.Tag, got.Matched)
	}
	// Without stemming the same text should match weakly or not at all.
	noStem, err := NewClassifier(SeedDictionary(), Options{Stem: false})
	if err != nil {
		t.Fatal(err)
	}
	raw := noStem.Classify("planners produced infeasible paths")
	if raw.Score >= got.Score {
		t.Errorf("no-stem score %d >= stem score %d; stemming should help", raw.Score, got.Score)
	}
}

func TestClassifierDeterminism(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := "watchdog error after software crash with sensor dropout"
	first := cls.Classify(text)
	for i := 0; i < 50; i++ {
		again := cls.Classify(text)
		if again.Tag != first.Tag || again.Score != first.Score {
			t.Fatalf("nondeterministic classification: %v vs %v", again, first)
		}
	}
}

func TestClassifyAll(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := cls.ClassifyAll([]string{"watchdog error", "software crash"})
	if len(res) != 2 || res[0].Tag != ontology.TagHangCrash || res[1].Tag != ontology.TagSoftware {
		t.Errorf("ClassifyAll = %v", res)
	}
}

func TestClassifyAllConcurrentMatchesSequential(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := []string{
		"watchdog error",
		"Software module froze during merge",
		"LIDAR failed to localize in time",
		"Disengage for a recklessly behaving road user",
		"Incorrect behavior prediction at crosswalk",
		"network dropout on the cellular link",
		"",
		"totally unrelated text",
	}
	var texts []string
	for i := 0; i < 40; i++ {
		texts = append(texts, base...)
	}
	want := make([]Result, len(texts))
	for i, s := range texts {
		want[i] = cls.Classify(s)
	}
	for _, workers := range []int{0, 1, 3, 8, 64, len(texts) + 7} {
		got := cls.ClassifyAllConcurrent(texts, workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: results differ from sequential classification", workers)
		}
	}
	if got := cls.ClassifyAllConcurrent(nil, 4); len(got) != 0 {
		t.Errorf("nil input returned %d results", len(got))
	}
}

// TestStemMemoMatchesPorterStem: a tokenizer memoizing its stems returns
// what PorterStem returns, on first use of a word and on every repeat.
func TestStemMemoMatchesPorterStem(t *testing.T) {
	plain := &Tokenizer{Stem: true}
	memo := plain.withStems(nil)
	texts := []string{
		"Planner failed to anticipate the merging vehicles",
		"planning failures; planners failing", "PERCEPTION rec0gnition errors",
		"Planner failed to anticipate the merging vehicles", "",
	}
	for pass := 0; pass < 2; pass++ {
		for _, text := range texts {
			if got, want := memo.Tokens(text), plain.Tokens(text); !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d %q: memoized %v, want %v", pass, text, got, want)
			}
		}
	}
	if len(memo.stems) == 0 {
		t.Error("the memo recorded no stems")
	}
}

// TestClassifierConcurrentUse: goroutines sharing one classifier, each
// calling Classify and ClassifyAll, get the sequential answers (run under
// -race: ClassifyAll's stem memo is its own, and Classify keeps none).
func TestClassifierConcurrentUse(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"watchdog error", "Software module froze during merge",
		"LIDAR failed to localize in time", "Incorrect behavior prediction at crosswalk",
		"network dropout on the cellular link", "watchdog error",
	}
	want := make([]Result, len(texts))
	for i, s := range texts {
		want[i] = cls.Classify(s)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := cls.ClassifyAll(texts); !reflect.DeepEqual(got, want) {
					errs <- "ClassifyAll differs from sequential Classify"
					return
				}
				if got := cls.Classify(texts[i%len(texts)]); !reflect.DeepEqual(got, want[i%len(texts)]) {
					errs <- "concurrent Classify differs from sequential Classify"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestTieBreakPolicies(t *testing.T) {
	// Build a dictionary where one text hits two tags with equal score.
	d := NewDictionary()
	d.Add(ontology.TagEnvironment, "ambiguous marker")
	d.Add(ontology.TagHangCrash, "ambiguous marker")
	prio, err := NewClassifier(d, Options{Stem: true, TieBreak: TieBreakPriority})
	if err != nil {
		t.Fatal(err)
	}
	// HangCrash outranks Environment in the priority order.
	if got := prio.Classify("ambiguous marker observed"); got.Tag != ontology.TagHangCrash {
		t.Errorf("priority tie-break -> %s", got.Tag)
	}
	first, err := NewClassifier(d, Options{Stem: true, TieBreak: TieBreakFirstMatch})
	if err != nil {
		t.Fatal(err)
	}
	// Environment has the lower tag number.
	if got := first.Classify("ambiguous marker observed"); got.Tag != ontology.TagEnvironment {
		t.Errorf("first-match tie-break -> %s", got.Tag)
	}
}

func TestExpandLearnsNewPhrases(t *testing.T) {
	// Corpus where a novel bigram co-occurs with known software vocabulary.
	corpus := make([]string, 0, 30)
	for i := 0; i < 10; i++ {
		corpus = append(corpus, "software crash following kernel panic")
		corpus = append(corpus, "watchdog error")
		corpus = append(corpus, "recklessly behaving road user")
	}
	seed := SeedDictionary()
	expanded, added, err := Expand(seed, corpus, DefaultOptions(), ExpandOptions{MinCount: 5})
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("Expand added nothing")
	}
	// The expanded dictionary should now classify the novel phrasing alone.
	cls, err := NewClassifier(expanded, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := cls.Classify("kernel panic")
	if got.Tag != ontology.TagSoftware {
		t.Errorf("learned phrase classified as %s", got.Tag)
	}
	// Original dictionary untouched.
	if seed.Size() >= expanded.Size() {
		t.Error("Expand should grow the copy, not shrink")
	}
}

func TestExpandIgnoresRareAndDiffuseBigrams(t *testing.T) {
	corpus := []string{
		"software crash alpha beta", // "alpha beta" occurs twice, split across tags
		"watchdog error alpha beta",
	}
	seed := SeedDictionary()
	expanded, added, err := Expand(seed, corpus, DefaultOptions(), ExpandOptions{MinCount: 5, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 || expanded.Size() != seed.Size() {
		t.Errorf("Expand added %d phrases from rare bigrams", added)
	}
}

// Property: classification score is monotone under text extension with the
// winning tag's keywords (adding more of the same signal never flips to
// Unknown).
func TestClassifierMonotoneProperty(t *testing.T) {
	cls, err := NewClassifier(SeedDictionary(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := []string{
		"software crash", "watchdog error", "sensor dropout",
		"construction zone", "incorrect behavior prediction",
	}
	prop := func(pick uint8, repeat uint8) bool {
		text := base[int(pick)%len(base)]
		first := cls.Classify(text)
		extended := text
		for i := 0; i < int(repeat%3)+1; i++ {
			extended += " " + text
		}
		second := cls.Classify(extended)
		return second.Tag == first.Tag && second.Score >= first.Score
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(48))}); err != nil {
		t.Error(err)
	}
}

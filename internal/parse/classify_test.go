package parse

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"

	"avfda/internal/ocr"
	"avfda/internal/scandoc"
	"avfda/internal/synth"
)

// isSectionMarker is the section-marker test classifyLine absorbed: the
// phrase in the upper-cased first 64 bytes of the line, digit lookalikes
// mapped back to letters.
func isSectionMarker(line, phrase string) bool {
	head := line
	if len(head) > 64 {
		head = head[:64]
	}
	norm := strings.Map(func(r rune) rune {
		switch r {
		case '0':
			return 'O'
		case '1':
			return 'I'
		case '5':
			return 'S'
		case '8':
			return 'B'
		case '2':
			return 'Z'
		case '6':
			return 'G'
		default:
			return r
		}
	}, strings.ToUpper(head))
	return strings.Contains(norm, phrase)
}

// refClassifyLine is the body-line switch classifyLine replaced: each
// check folds the line again through strings.ToUpper.
func refClassifyLine(line string) int {
	switch {
	case isSectionMarker(line, "MILES BY VEHICLE"):
		return lineMilesMarker
	case isSectionMarker(line, "DISENGAGEMENT EVENTS"):
		return lineEventsMarker
	case strings.HasPrefix(strings.ToUpper(line), "VEHICLE |"),
		strings.HasPrefix(strings.ToUpper(line), "DATE TIME |"):
		return lineColumnHeader
	}
	return lineRow
}

// TestOnlyTwoNonASCIIRunesUpperToASCII pins the fact classifyLine's ASCII
// fold rests on, over every rune.
func TestOnlyTwoNonASCIIRunesUpperToASCII(t *testing.T) {
	for r := rune(utf8RuneSelf); r <= unicode.MaxRune; r++ {
		if up := unicode.ToUpper(r); up < utf8RuneSelf && r != 'ı' && r != 'ſ' {
			t.Errorf("unicode.ToUpper(%U) = %q is ASCII", r, up)
		}
	}
}

const utf8RuneSelf = 0x80

// TestClassifyLineMatchesToUpper holds classifyLine equal to the reference
// on hand-picked edges, on random lines built from marker fragments, digit
// lookalikes and non-ASCII runes, and on every line of a noisy corpus.
func TestClassifyLineMatchesToUpper(t *testing.T) {
	lines := []string{
		"", "MILES BY VEHICLE", "miles by vehicle", "M1LE5 8Y VEH1CLE", "Disengagement Events",
		"DI5ENGAGEMENT EVENT5", "vehicle | month", "Date Time | cause", "VEH1CLE | month", "VEHICLE|",
		"ſection: MILES BY VEHICLE", "MıLES BY VEHICLE", "mıles by vehıcle", "DATE TıME | x", "vehıcle | x",
		"ſ" + strings.Repeat("x", 60) + "MILES BY VEHICLE",
		strings.Repeat("x", 48) + "MILES BY VEHICLE", strings.Repeat("x", 49) + "MILES BY VEHICLE",
		strings.Repeat("é", 24) + "MILES BY VEHICLE", strings.Repeat("é", 25) + "MILES BY VEHICLE",
		"\xff\xfeMILES BY VEHICLE", "MILES\xffBY VEHICLE", "Ǆ DISENGAGEMENT EVENTS", "ÿ vehicle |",
	}
	frags := []string{"MILES", "miles", "M1LE5", " BY ", " by ", "8Y", "VEHICLE", "veh1cle", "DISENGAGEMENT", "EVENTS",
		"event5", "DATE TIME", " | ", "|", "ı", "ſ", "é", "ß", "K", "\xff", "0", "2", "6", "x", " "}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(12); n >= 0; n-- {
			b.WriteString(frags[rng.Intn(len(frags))])
		}
		lines = append(lines, b.String())
	}
	truth, err := synth.Generate(synth.Config{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ocr.NewEngine(ocr.Config{SubstitutionRate: 0.05, SeparatorDropRate: 0.05, LineMergeRate: 0.05, ManualThreshold: 0, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range eng.DecodeAll(scandoc.Render(&truth.Corpus)) {
		for _, l := range res.Lines {
			lines = append(lines, strings.TrimSpace(l))
		}
	}
	for _, l := range lines {
		if got, want := classifyLine(l), refClassifyLine(l); got != want {
			t.Errorf("classifyLine(%q) = %d, want %d", l, got, want)
		}
	}
}

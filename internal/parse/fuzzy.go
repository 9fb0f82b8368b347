package parse

import (
	"bytes"
	"strings"
	"unicode/utf8"

	"avfda/internal/schema"
)

// resolveManufacturer parses a manufacturer name, falling back to fuzzy
// matching against the known vendor names when OCR damaged the value — a
// single substituted character must not discard a whole annual report.
// Word prefixes of the value are also tried, because an OCR line merge can
// glue the next header line onto the name ("Delphi Reporting Period: ...").
func resolveManufacturer(val string) (schema.Manufacturer, bool) {
	candidates := []string{val}
	words := strings.Fields(val)
	for n := 1; n <= 3 && n < len(words); n++ {
		candidates = append(candidates, strings.Join(words[:n], " "))
	}
	for _, cand := range candidates {
		if m, ok := schema.ParseManufacturer(cand); ok {
			return m, true
		}
	}
	best := schema.Manufacturer("")
	bestDist := 3 // accept up to 2 edits
	for _, cand := range candidates {
		for _, m := range schema.AllManufacturers() {
			d := levenshtein(strings.ToLower(cand), strings.ToLower(string(m)))
			if d < bestDist {
				best, bestDist = m, d
			}
		}
	}
	if best == "" {
		return "", false
	}
	return best, true
}

// OCR-tolerant string matching: field keys and section markers damaged by
// character substitutions still need to be recognized, and digits decoded
// as lookalike letters need to be repaired before numeric parsing.

// cleanNumeric repairs the standard OCR confusions inside fields that are
// known to be numeric or date-like (O→0, l/I→1, S→5, B→8, Z→2, G→6). An
// ASCII field with nothing to repair, the common case, is returned as it
// is without a strings.Map pass.
func cleanNumeric(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || numericRepair(rune(c)) != rune(c) {
			return strings.Map(numericRepair, s)
		}
	}
	return s
}

// numericRepair maps one digit lookalike back to its digit.
func numericRepair(r rune) rune {
	switch r {
	case 'O', 'o':
		return '0'
	case 'l', 'I':
		return '1'
	case 'S':
		return '5'
	case 'B':
		return '8'
	case 'Z':
		return '2'
	case 'G':
		return '6'
	default:
		return r
	}
}

// Kinds of a disengagement report's body line, as classifyLine reports
// them.
const (
	lineRow          = iota // anything else: a data row or noise
	lineMilesMarker         // the "MILES BY VEHICLE" section marker
	lineEventsMarker        // the "DISENGAGEMENT EVENTS" section marker
	lineColumnHeader        // a "VEHICLE |" or "DATE TIME |" column header row
)

// classifyLine folds a trimmed body line once and reports its kind. A
// line whose upper case starts with a column header's prefix is a column
// header, unless it carries a section marker. Markers are found in the
// line head: OCR substitutions on capitals are undone by mapping the digit
// lookalikes back to letters (0→O, 1→I, 5→S, 8→B, 2→Z, 6→G) in the
// upper-cased first 64 bytes, then an exact substring match runs, O(n) per
// line, robust to the substitutions the noise model produces, and still
// correct when a line merge glued the marker to the following data row.
//
// Every phrase is ASCII, and ı (U+0131) and ſ (U+017F) are the only
// non-ASCII runes whose upper case is ASCII, so on a line without them an
// ASCII-only fold of the bytes matches exactly where strings.ToUpper
// would. Their UTF-8 lead bytes are 0xC4 and 0xC5, so only a line holding
// one of those bytes takes the strings.ToUpper path.
func classifyLine(line string) int {
	var buf [64]byte
	head := append(buf[:0], line[:min(len(line), len(buf))]...)
	var column bool
	if strings.IndexByte(line, 0xC4) >= 0 || strings.IndexByte(line, 0xC5) >= 0 {
		head = append(buf[:0], strings.ToUpper(string(head))...)
		up := strings.ToUpper(line)
		column = strings.HasPrefix(up, "VEHICLE |") || strings.HasPrefix(up, "DATE TIME |")
	} else {
		for i, c := range head {
			if 'a' <= c && c <= 'z' {
				head[i] = c - ('a' - 'A')
			}
		}
		column = bytes.HasPrefix(head, []byte("VEHICLE |")) || bytes.HasPrefix(head, []byte("DATE TIME |"))
	}
	for i, c := range head {
		switch c {
		case '0':
			head[i] = 'O'
		case '1':
			head[i] = 'I'
		case '5':
			head[i] = 'S'
		case '8':
			head[i] = 'B'
		case '2':
			head[i] = 'Z'
		case '6':
			head[i] = 'G'
		}
	}
	switch {
	case bytes.Contains(head, []byte("MILES BY VEHICLE")):
		return lineMilesMarker
	case bytes.Contains(head, []byte("DISENGAGEMENT EVENTS")):
		return lineEventsMarker
	case column:
		return lineColumnHeader
	}
	return lineRow
}

// vehicleRegistry canonicalizes OCR-damaged vehicle identifiers within one
// report: an ID that differs from a previously seen ID in exactly one
// *confusable* character pair (0/O, 1/l, 5/S, ...) is the same vehicle — a
// substituted character must not mint a phantom car and skew the per-car
// DPM distributions. Plain edit distance would be wrong here: legitimate
// sequential IDs (car01 vs car02) also differ by one character. Mileage
// tables precede event tables in every report, so the registry is seeded
// with (mostly clean, oft-repeated) mileage IDs before events resolve
// against it.
type vehicleRegistry struct {
	seen   map[schema.VehicleID]int
	counts map[schema.VehicleID]int
}

func newVehicleRegistry() *vehicleRegistry {
	return &vehicleRegistry{
		seen:   make(map[schema.VehicleID]int),
		counts: make(map[schema.VehicleID]int),
	}
}

// resolve maps id to its canonical form, registering it when new.
func (r *vehicleRegistry) resolve(id schema.VehicleID) schema.VehicleID {
	if id == "" {
		return id
	}
	if _, ok := r.seen[id]; ok {
		r.counts[id]++
		return id
	}
	best := schema.VehicleID("")
	bestCount := -1
	for known := range r.seen {
		if confusableVariant(string(known), string(id)) && r.counts[known] > bestCount {
			best, bestCount = known, r.counts[known]
		}
	}
	if best != "" {
		r.counts[best]++
		return best
	}
	r.seen[id] = len(r.seen)
	r.counts[id] = 1
	return id
}

// confusablePairs lists the symmetric OCR lookalike classes the noise model
// produces (mirror of the ocr package's confusion table).
var confusablePairs = buildConfusablePairs()

func buildConfusablePairs() map[[2]rune]bool {
	out := make(map[[2]rune]bool, 28)
	pairs := [][2]rune{
		{'0', 'O'}, {'1', 'l'}, {'1', 'I'}, {'l', 'I'}, {'5', 'S'},
		{'8', 'B'}, {'2', 'Z'}, {'6', 'G'}, {'g', 'q'}, {'e', 'c'},
		{'n', 'h'}, {'u', 'v'}, {'a', 'o'}, {'t', 'f'},
	}
	for _, p := range pairs {
		out[p] = true
		out[[2]rune{p[1], p[0]}] = true
	}
	return out
}

// confusableVariant reports whether a and b are equal up to OCR-confusable
// substitutions (at least one differing position, all differences
// confusable).
func confusableVariant(a, b string) bool {
	ra, rb := []rune(a), []rune(b)
	if len(ra) != len(rb) {
		return false
	}
	diffs := 0
	for i := range ra {
		if ra[i] == rb[i] {
			continue
		}
		if !confusablePairs[[2]rune{ra[i], rb[i]}] {
			return false
		}
		diffs++
	}
	return diffs > 0
}

// fuzzyEqual reports whether a and b match within an edit distance budget
// proportional to their length (1 edit per 8 characters, minimum 1),
// case-insensitively.
func fuzzyEqual(a, b string) bool {
	a = strings.ToLower(strings.TrimSpace(a))
	b = strings.ToLower(strings.TrimSpace(b))
	if a == b {
		return true
	}
	budget := len(b)/8 + 1
	if abs(len(a)-len(b)) > budget {
		return false
	}
	return levenshtein(a, b) <= budget
}

// fuzzyContains reports whether text contains a substring fuzzily equal to
// needle (sliding window at needle length ±1). It compares bytes as they
// are; callers fold case once, before matching several needles.
func fuzzyContains(text, needle string) bool {
	if strings.Contains(text, needle) {
		return true
	}
	n := len(needle)
	if n == 0 || len(text) < n-1 {
		return false
	}
	budget := n/8 + 1
	// Every window is a substring of text, so when no substring comes
	// within budget, no window can.
	if substringDistance(text, needle) > budget {
		return false
	}
	for w := n - 1; w <= n+1; w++ {
		if w <= 0 || w > len(text) {
			continue
		}
		for i := 0; i+w <= len(text); i++ {
			if levenshtein(text[i:i+w], needle) <= budget {
				return true
			}
		}
	}
	return false
}

// substringDistance returns the least edit distance between needle and any
// substring of text (Sellers' algorithm): one pass over text, against
// fuzzyContains' three windows per position.
func substringDistance(text, needle string) int {
	var colArr [64]int
	col := colArr[:0]
	for i := range len(needle) + 1 {
		col = append(col, i)
	}
	best := len(needle)
	for t := 0; t < len(text); t++ {
		diag := col[0] // col[0] stays 0: a match may start anywhere
		for i := 1; i <= len(needle); i++ {
			cost := 1
			if needle[i-1] == text[t] {
				cost = 0
			}
			next := min3(col[i]+1, col[i-1]+1, diag+cost)
			diag, col[i] = col[i], next
		}
		best = min(best, col[len(needle)])
	}
	return best
}

// levenshtein computes the edit distance between a and b with the standard
// two-row dynamic program. The rows live on the stack unless b is long.
func levenshtein(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var rows [2][64]int
	prev, cur := rows[0][:], rows[1][:]
	if len(b)+1 > len(prev) {
		prev, cur = make([]int, len(b)+1), make([]int, len(b)+1)
	}
	prev, cur = prev[:len(b)+1], cur[:len(b)+1]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

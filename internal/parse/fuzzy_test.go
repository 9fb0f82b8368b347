package parse

import (
	"math/rand"
	"testing"
)

// TestSubstringDistanceIsMinOverSubstrings checks the fuzzyContains
// prefilter against its definition: the least levenshtein distance from
// needle to any substring of text, the empty one included.
func TestSubstringDistanceIsMinOverSubstrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcd "[rng.Intn(5)]
		}
		return string(b)
	}
	for range 500 {
		text, needle := randStr(rng.Intn(12)), randStr(1+rng.Intn(6))
		want := len(needle)
		for i := 0; i <= len(text); i++ {
			for j := i; j <= len(text); j++ {
				want = min(want, levenshtein(text[i:j], needle))
			}
		}
		if got := substringDistance(text, needle); got != want {
			t.Fatalf("substringDistance(%q, %q) = %d, want %d", text, needle, got, want)
		}
	}
}

package lint_test

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"avfda/internal/lint"
)

// TestAllowIsPerAnalyzer pins the suppression contract on shared lines:
// the cross fixture has three `strings.Contains(err.Error(), time.Now()...)`
// lines — each an errsubstr and a nondeterm violation — with a
// //lint:allow for errsubstr above the first, nondeterm above the second,
// and nothing above the third. Suppressing one analyzer must not hide the other.
func TestAllowIsPerAnalyzer(t *testing.T) {
	pkgs, err := lint.LoadFixture(filepath.Join("testdata", "src"), "cross/internal/snapshot2")
	if err != nil {
		t.Fatalf("loading cross fixture: %v", err)
	}
	diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.ErrSubstr, lint.NonDeterm})
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	byLine := map[int][]string{}
	for _, d := range diags {
		byLine[d.Pos.Line] = append(byLine[d.Pos.Line], d.Analyzer)
	}
	var got []string
	for _, names := range byLine {
		sort.Strings(names)
		got = append(got, strings.Join(names, "+"))
	}
	sort.Strings(got)
	want := []string{"errsubstr", "errsubstr+nondeterm", "nondeterm"}
	if len(got) != len(want) {
		t.Fatalf("diagnostic line groups = %v, want %v (diags: %v)", got, want, diags)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diagnostic line groups = %v, want %v (diags: %v)", got, want, diags)
		}
	}
}

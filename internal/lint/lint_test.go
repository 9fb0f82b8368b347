package lint_test

import (
	"errors"
	"testing"

	"avfda/internal/lint"
)

// TestAllAnalyzers pins the suite roster: names are unique, documented, and
// resolvable through ByName.
func TestAllAnalyzers(t *testing.T) {
	all := lint.All()
	if len(all) < 6 {
		t.Fatalf("suite has %d analyzers, want at least 6", len(all))
	}
	seen := map[string]bool{}
	var names []string
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
	}
	for _, want := range []string{
		"mapiter", "errsubstr", "nondeterm", "exhaustive-category",
		"ctxflow", "resleak",
	} {
		if !seen[want] {
			t.Errorf("suite %v is missing %q", names, want)
		}
	}

	resolved, err := lint.ByName(names)
	if err != nil {
		t.Fatalf("ByName(%v): %v", names, err)
	}
	if len(resolved) != len(all) {
		t.Errorf("ByName resolved %d of %d", len(resolved), len(all))
	}
	_, err = lint.ByName([]string{"nosuch"})
	var ue *lint.UnknownAnalyzerError
	if !errors.As(err, &ue) || ue.Name != "nosuch" {
		t.Errorf("ByName(nosuch) error = %v, want *UnknownAnalyzerError naming it", err)
	}
}

// TestDiagnosticString pins the file:line:col: [analyzer] message format
// that avlint prints and CI greps.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "mapiter", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [mapiter] boom"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}

package lint

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// realInternalPackages walks ../../internal and returns the module-relative
// paths ("internal/...") of every directory that directly contains a
// non-test .go file, excluding fixture trees under testdata.
func realInternalPackages(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..", "internal")
	var pkgs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := false
		for _, e := range ents {
			name := e.Name()
			if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				hasGo = true
				break
			}
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(filepath.Join("..", ".."), path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatalf("walking internal/: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("found only %d internal packages (%v); the walk is broken", len(pkgs), pkgs)
	}
	return pkgs
}

// TestScopeListsCoverInternalPackages is the drift guard the scope lists
// lacked for two generations: every analyzer that declares a non-empty
// Scope must, for each real package under internal/, either include it or
// carry a recorded exemption in scopeExemptions with a reason. Adding a
// new internal package fails this test until someone decides, per scoped
// analyzer, whether the invariant applies there; deleting one fails it
// until its Scope entries and exemptions go too.
func TestScopeListsCoverInternalPackages(t *testing.T) {
	pkgs := realInternalPackages(t)
	for _, a := range All() {
		if len(a.Scope) == 0 {
			continue // runs everywhere; nothing to drift
		}
		scoped := map[string]bool{}
		for _, s := range a.Scope {
			scoped[s] = true
		}
		exempt := scopeExemptions[a.Name]
		for _, pkg := range pkgs {
			inScope := scoped[pkg]
			reason, isExempt := exempt[pkg]
			switch {
			case inScope && isExempt:
				t.Errorf("%s: %s is both in Scope and exempted (%q); pick one", a.Name, pkg, reason)
			case !inScope && !isExempt:
				t.Errorf("%s: %s is neither in Scope nor exempted; add it to the "+
					"Scope list or record an exemption in scopeExemptions with a reason",
					a.Name, pkg)
			case isExempt && strings.TrimSpace(reason) == "":
				t.Errorf("%s: exemption for %s has an empty reason", a.Name, pkg)
			}
		}
		// Stale entries: a Scope entry or an exemption for a package that
		// no longer exists (or was never spelled correctly) is drift in the
		// other direction.
		real := map[string]bool{}
		for _, pkg := range pkgs {
			real[pkg] = true
		}
		for _, pkg := range a.Scope {
			if !real[pkg] {
				t.Errorf("%s: Scope lists %s, which is not a real internal package", a.Name, pkg)
			}
		}
		for pkg := range exempt {
			if !real[pkg] {
				t.Errorf("%s: exemption for %s, which is not a real internal package", a.Name, pkg)
			}
		}
	}
	// Exemptions for analyzers that don't exist or run everywhere are stale.
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	for name := range scopeExemptions {
		a, ok := byName[name]
		if !ok {
			t.Errorf("scopeExemptions entry for unknown analyzer %q", name)
			continue
		}
		if len(a.Scope) == 0 {
			t.Errorf("scopeExemptions entry for %q, which has an empty Scope and runs everywhere", name)
		}
	}
}

// TestScopeMatchingUsesSegmentBoundaries pins that InScope matching cannot
// be fooled by a package whose name merely ends with a scoped package's
// name (e.g. a future internal/reserve must not inherit internal/serve's
// scope membership).
func TestScopeMatchingUsesSegmentBoundaries(t *testing.T) {
	p := &Pass{Analyzer: &Analyzer{Scope: []string{"internal/serve"}}, Path: "avfda/internal/reserve"}
	if p.InScope() {
		t.Fatal("internal/reserve matched scope entry internal/serve")
	}
	p.Path = "avfda/internal/serve"
	if !p.InScope() {
		t.Fatal("internal/serve did not match its own scope entry")
	}
}

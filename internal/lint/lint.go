// Package lint is a small static-analysis framework plus the avfda-specific
// analyzers that machine-enforce the toolkit's determinism and typed-error
// invariants (system #21 in DESIGN.md §2).
//
// The API deliberately mirrors golang.org/x/tools/go/analysis — an Analyzer
// with a Name, Doc, and Run(*Pass), diagnostics reported through the pass —
// so the suite can migrate onto the real framework the first time the module
// is allowed an external dependency. Until then everything here is built on
// the standard library's go/ast and go/types only, which keeps `go run
// ./cmd/avlint ./...` working in offline, dependency-free environments (the
// same property the snapshot store and synthetic corpus rely on).
//
// Why these analyzers exist: the pipeline's trustworthiness rests on
// run-to-run reproducibility (parallel-vs-sequential and snapshot
// byte-identity are pinned by tests), and on typed-error classification at
// the serving boundary (PR 3 fixed a bug where transports matched
// err.Error() substrings instead of using errors.As). Tests catch those
// regressions after the fact; the analyzers reject them at review time.
//
// Suppression: a comment of the form
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it silences that analyzer
// for that line. The reason is mandatory — an allow without one is inert.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one invariant check. It is stateless: Run is invoked
// once per loaded package with a fresh Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -disable flags, and
	// //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// guards, shown by `avlint -list`.
	Doc string
	// Scope lists the package path suffixes (as understood by
	// Pass.PathHasSuffix) the analyzer applies to. Empty means every
	// package. Scoped analyzers gate on Pass.InScope; the scope meta-test
	// in scope_test.go fails when a package under internal/ is absent from
	// a non-empty scope without a recorded exemption, so scope lists can
	// no longer silently drift as packages are added.
	Scope []string
	// Run inspects one package and reports violations through the pass.
	Run func(*Pass) error
}

// A Pass carries one type-checked package to an analyzer.
type Pass struct {
	// Analyzer is the analyzer this pass belongs to.
	Analyzer *Analyzer
	// Path is the package's import path ("avfda/internal/core"). For an
	// external test package it carries the "_test" suffix.
	Path string
	// Fset resolves token positions for every file in the package.
	Fset *token.FileSet
	// Files are the package's parsed files, including in-package _test.go
	// files.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's facts for Files.
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether f is a _test.go file. Analyzers that guard
// production determinism (mapiter, nondeterm, exhaustive-category) skip test
// files; errsubstr deliberately does not, because assertion code is where
// the err.Error() substring anti-pattern breeds.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// PathHasSuffix reports whether the package's import path ends with one of
// the given path suffixes (matched on whole path segments, so
// "internal/core" matches "avfda/internal/core" but not
// "avfda/internal/encore").
func (p *Pass) PathHasSuffix(suffixes ...string) bool {
	for _, s := range suffixes {
		// External test packages share their base package's invariants.
		path := strings.TrimSuffix(p.Path, "_test")
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// InScope reports whether the package falls under the analyzer's Scope. An
// empty scope means the analyzer applies everywhere.
func (p *Pass) InScope() bool {
	if len(p.Analyzer.Scope) == 0 {
		return true
	}
	return p.PathHasSuffix(p.Analyzer.Scope...)
}

// A Diagnostic is one reported violation, with its position already
// resolved.
type Diagnostic struct {
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos locates the violation.
	Pos token.Position
	// Message explains the violation and names the sanctioned alternative.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package and returns the surviving
// diagnostics sorted by file, line, column, and analyzer name. Packages are
// analyzed across GOMAXPROCS workers, and scheduling cannot affect the
// result: per-package results are collected by index (the first failing
// package in input order wins as the returned error) and the final sort
// fixes the diagnostic order.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	workers := min(runtime.GOMAXPROCS(0), len(pkgs))

	type pkgResult struct {
		diags []Diagnostic
		err   error
	}
	results := make([]pkgResult, len(pkgs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				diags, err := runPackage(pkgs[i], analyzers)
				results[i] = pkgResult{diags, err}
			}
		}()
	}
	for i := range pkgs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var diags []Diagnostic
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		diags = append(diags, r.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// runPackage applies the analyzers to one package and filters the
// diagnostics through its //lint:allow directives.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := collectAllows(pkg)
	var pkgDiags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			diags:    &pkgDiags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	var out []Diagnostic
	for _, d := range pkgDiags {
		if !allows.allowed(d) {
			out = append(out, d)
		}
	}
	return out, nil
}

// allowKey identifies one (file, line, analyzer) suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowSet map[allowKey]bool

// collectAllows scans a package's comments for //lint:allow directives. A
// directive covers its own line and the line below it, so it works both as a
// trailing comment and as a line comment above the flagged statement.
func collectAllows(pkg *Package) allowSet {
	set := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lint:allow") {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, "lint:allow"))
				if len(fields) < 2 {
					// No reason given: the directive is inert by design.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				set[allowKey{pos.Filename, pos.Line, fields[0]}] = true
				set[allowKey{pos.Filename, pos.Line + 1, fields[0]}] = true
			}
		}
	}
	return set
}

func (s allowSet) allowed(d Diagnostic) bool {
	return s[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}]
}

// All returns the full analyzer suite in stable order: the generation-1
// AST-level analyzers, then ctxflow and resleak, the resource-leak check
// built on internal/lint/cfg. The concurrency invariants the suite once
// checked are held without it: internal/serve takes each mutex only in a
// scoped Lock/defer Unlock helper (TestLocksAreScoped), counters read
// across goroutines are typed atomics or lock-guarded fields that go test
// -race watches, and TestScrapeDoesNotHoldLock pins that a scrape renders
// outside the lock.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter, ErrSubstr, NonDeterm, ExhaustiveCategory,
		CtxFlow, Resleak,
	}
}

// UnknownAnalyzerError reports a name that resolves to no analyzer in the
// suite — typed, so callers classify it with errors.As rather than matching
// message text (the invariant errsubstr itself enforces).
type UnknownAnalyzerError struct {
	// Name is the unresolved analyzer name.
	Name string
}

// Error implements the error interface.
func (e *UnknownAnalyzerError) Error() string {
	return fmt.Sprintf("unknown analyzer %q", e.Name)
}

// ByName resolves analyzer names (e.g. from a -disable flag) against All,
// returning an *UnknownAnalyzerError if one does not resolve.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, &UnknownAnalyzerError{Name: n}
		}
		out = append(out, a)
	}
	return out, nil
}

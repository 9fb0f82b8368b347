// Package loading for avlint.
//
// The loader type-checks packages with the standard library only, which
// forces an unusual but fully offline strategy:
//
//   - Standard-library imports resolve through compiled export data located
//     by a single `go list -export -json std` invocation (the build cache
//     serves it without network access).
//   - In-module packages ("avfda/...") are type-checked from source,
//     recursively and memoized, so analyzers see real types for any
//     dependency they care about (e.g. ontology.Category). Only analysis
//     targets keep a types.Info.
//   - Analyzer test fixtures live under testdata/src/<importpath> — the
//     go/analysis analysistest convention — and resolve fixture-root
//     imports first, so a fixture can stub "avfda/internal/ontology".
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked unit of analysis.
type Package struct {
	// Path is the import path; external test packages get a "_test" suffix.
	Path string
	// Dir is the directory the package's files live in.
	Dir string
	// Fset, Files, Types, Info mirror the Pass fields documented in lint.go.
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Standard     bool
}

// stdExports caches the stdlib export-data listing process-wide: `go list
// -export -json std` costs a subprocess plus a full stdlib walk, and every
// loader (one per LoadModule/LoadFixture call — the analyzer fixture tests
// alone create dozens) needs the identical answer.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "std").Output()
	if err != nil {
		return nil, fmt.Errorf("lint: listing stdlib export data: %w", err)
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
})

// importFlight is one in-progress or completed dependency resolution:
// the first goroutine to request a path does the work, later requesters
// wait on done and share the result.
type importFlight struct {
	done chan struct{}
	pkg  *types.Package
	err  error
}

// loader resolves imports for one Load call. Import is safe for concurrent
// use: per-path flights deduplicate work, the token.FileSet is internally
// synchronized, and the gc export-data importer (whose package map is not
// thread-safe) is serialized behind gcMu.
type loader struct {
	fset *token.FileSet
	// fixtureRoot, when non-empty, is a GOPATH-style src directory whose
	// packages shadow everything else (analysistest fixtures).
	fixtureRoot string
	// listed maps import paths to their go-list records for source
	// type-checking of in-module dependencies. Read-only after LoadModule's
	// setup phase.
	listed map[string]listedPkg
	// variants maps a package path to the in-module packages that import
	// it and so are recompiled against its in-package test files when its
	// external test package builds ("query [snapshot2.test]" in go list).
	// Read-only after LoadModule's setup phase.
	variants map[string][]string
	// exports maps import paths to compiled export-data files (shared,
	// read-only, from stdExports).
	exports map[string]string

	// mu guards flights.
	mu      sync.Mutex
	flights map[string]*importFlight

	// gcMu serializes the gc importer, which memoizes in an unsynchronized
	// map.
	gcMu sync.Mutex
	gc   types.Importer
}

func newLoader(fixtureRoot string) (*loader, error) {
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	l := &loader{
		fset:        token.NewFileSet(),
		fixtureRoot: fixtureRoot,
		listed:      map[string]listedPkg{},
		variants:    map[string][]string{},
		exports:     exports,
		flights:     map[string]*importFlight{},
	}
	l.gc = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	return l, nil
}

// Import implements types.Importer for dependency resolution during source
// type-checking: fixture root first, then in-module source, then stdlib
// export data. Concurrent imports of the same path coalesce onto one
// flight.
func (l *loader) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	if fl, ok := l.flights[path]; ok {
		l.mu.Unlock()
		<-fl.done
		return fl.pkg, fl.err
	}
	fl := &importFlight{done: make(chan struct{})}
	l.flights[path] = fl
	l.mu.Unlock()

	fl.pkg, fl.err = l.importUncached(path)
	close(fl.done)
	return fl.pkg, fl.err
}

func (l *loader) importUncached(path string) (*types.Package, error) {
	if l.fixtureRoot != "" {
		dir := filepath.Join(l.fixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return l.checkDir(path, dir)
		}
	}
	if lp, ok := l.listed[path]; ok && !lp.Standard {
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		return l.checkSource(path, files)
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.gc.Import(path)
}

// checkDir source-checks every non-test .go file in dir as package path.
func (l *loader) checkDir(path, dir string) (*types.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return l.checkSource(path, files)
}

// checkSource type-checks files as the dependency package path (memoization
// happens at the flight layer in Import). Analyzers read only their target
// package's types.Info, so a dependency is checked without one.
func (l *loader) checkSource(path string, files []string) (*types.Package, error) {
	asts, err := l.parse(files)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, asts, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking dependency %s: %w", path, err)
	}
	return pkg, nil
}

// newInfo allocates the types.Info map set the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func (l *loader) parse(files []string) ([]*ast.File, error) {
	var asts []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(l.fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, af)
	}
	return asts, nil
}

// check type-checks a target package (with full types.Info) from the given
// files, resolving its imports through imp.
func (l *loader) check(imp types.Importer, path, dir string, files []string) (*Package, error) {
	asts, err := l.parse(files)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: asts,
		Types: tpkg,
		Info:  info,
	}, nil
}

// LoadModule loads the packages matching the go-list patterns (typically
// "./...") from the module rooted at or above dir, type-checking each
// together with its in-package test files; external (_test package) test
// files become a separate *Package with a "_test" path suffix. Targets are
// type-checked across GOMAXPROCS workers. Results are in target order
// regardless of scheduling, and a target that fails to type-check always
// surfaces as an error (the first such, in target order) — never as a
// silently missing package.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	l, err := newLoader("")
	if err != nil {
		return nil, err
	}

	// The two go-list invocations are independent; overlap them.
	type listResult struct {
		pkgs []listedPkg
		err  error
	}
	depc := make(chan listResult, 1)
	go func() {
		// Resolution set: every non-stdlib dependency reachable from the
		// targets, including test-only dependencies (-deps -test).
		pkgs, err := goList(dir, append([]string{"-deps", "-test", "-json=ImportPath,Dir,GoFiles,Standard"}, patterns...))
		depc <- listResult{pkgs, err}
	}()
	// Targets: the packages the patterns name.
	targets, err := goList(dir, append([]string{"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles"}, patterns...))
	dep := <-depc
	if err != nil {
		return nil, err
	}
	if dep.err != nil {
		return nil, dep.err
	}
	// Test-variant entries ("pkg [pkg.test]", "pkg.test") are folded onto
	// their base import path; the base entry wins when both appear.
	for _, p := range dep.pkgs {
		base, variant, _ := strings.Cut(p.ImportPath, " ")
		if strings.HasSuffix(base, ".test") {
			continue
		}
		if of := strings.TrimSuffix(strings.Trim(variant, "[]"), ".test"); variant != "" && base != of && base != of+"_test" {
			l.variants[of] = append(l.variants[of], base)
		}
		if _, ok := l.listed[base]; ok {
			continue
		}
		p.ImportPath = base
		l.listed[base] = p
	}

	workers := min(runtime.GOMAXPROCS(0), len(targets))

	// Fan the targets across the pool. results is indexed by target so the
	// output order (and the choice of which error wins) is deterministic.
	type targetResult struct {
		pkgs []*Package
		err  error
	}
	results := make([]targetResult, len(targets))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pkgs, err := l.checkTarget(targets[i])
				results[i] = targetResult{pkgs, err}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var pkgs []*Package
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		pkgs = append(pkgs, r.pkgs...)
	}
	return pkgs, nil
}

// checkTarget type-checks one go-list target: the package with its
// in-package test files, plus the external test package when present.
func (l *loader) checkTarget(t listedPkg) ([]*Package, error) {
	var out []*Package
	files := make([]string, 0, len(t.GoFiles)+len(t.TestGoFiles))
	for _, f := range append(append([]string{}, t.GoFiles...), t.TestGoFiles...) {
		files = append(files, filepath.Join(t.Dir, f))
	}
	imp := types.Importer(l)
	if len(files) > 0 {
		pkg, err := l.check(l, t.ImportPath, t.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
		if len(t.TestGoFiles) > 0 {
			imp = &testImporter{l: l, under: t.ImportPath, pkgs: map[string]*types.Package{t.ImportPath: pkg.Types}}
		}
	}
	if len(t.XTestGoFiles) > 0 {
		files = files[:0]
		for _, f := range t.XTestGoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := l.check(imp, t.ImportPath+"_test", t.Dir, files)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// testImporter resolves an external test package's imports as go builds
// them: the package under test includes its in-package test files (so an
// export_test.go is visible), and the in-module packages importing it are
// re-checked against that package; every other import comes from the
// shared loader. One target's check uses it from one goroutine.
type testImporter struct {
	l     *loader
	under string
	pkgs  map[string]*types.Package
}

// Import implements types.Importer.
func (ti *testImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := ti.pkgs[path]; ok {
		return pkg, nil
	}
	if !slices.Contains(ti.l.variants[ti.under], path) {
		return ti.l.Import(path)
	}
	lp := ti.l.listed[path]
	files := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		files[i] = filepath.Join(lp.Dir, f)
	}
	asts, err := ti.l.parse(files)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: ti}
	pkg, err := conf.Check(path, ti.l.fset, asts, nil)
	if err != nil {
		return nil, fmt.Errorf("type-checking dependency %s for %s's tests: %w", path, ti.under, err)
	}
	ti.pkgs[path] = pkg
	return pkg, nil
}

// LoadFixture loads analyzer test fixtures: each path is resolved as
// root/<path> (the analysistest testdata/src convention), and imports
// between fixture packages resolve under root before anything else.
func LoadFixture(root string, paths ...string) ([]*Package, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, path := range paths {
		dir := filepath.Join(root, filepath.FromSlash(path))
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("lint: fixture %s: %w", path, err)
		}
		var files []string
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
		sort.Strings(files)
		pkg, err := l.check(l, path, dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goList runs `go list` in dir and decodes its JSON stream.
func goList(dir string, args []string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

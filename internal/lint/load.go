// Package loading for avlint.
//
// The loader type-checks packages with the standard library only, which
// forces an unusual but fully offline strategy:
//
//   - LoadModule runs one `go list -deps -test` over the patterns. It prints
//     every package after the packages it imports, including each test
//     variant `go test` builds ("q [p.test]"), whose ImportMap names the
//     variants it imports. The loader walks that list once on one
//     goroutine and type-checks every non-standard entry from source
//     exactly once, skipping a plain package that its test variant
//     supersedes and no entry imports (a command with tests); an import
//     resolves through the entry's ImportMap to an entry already checked.
//     Only analysis targets keep a types.Info.
//   - Standard-library imports resolve through compiled export data located
//     by a single `go list -export -json std` invocation (the build cache
//     serves it without network access), which runs beside the module
//     listing.
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
	// ImportPath carries a " [p.test]" suffix on test variants.
	ImportPath string
	Dir        string
	// ForTest names the package whose test build a variant belongs to.
	ForTest string
	// DepOnly is set on entries the patterns reach only as dependencies.
	DepOnly  bool
	Standard bool
	// GoFiles of an in-package test variant include its _test.go files.
	GoFiles []string
	// Imports lists the entries this entry imports, variants resolved.
	Imports []string
	// ImportMap maps an import path to the variant this entry imports.
	ImportMap map[string]string
	// Export is the compiled export-data file (the std listing only).
	Export string
}

// stdExports caches the stdlib export-data listing process-wide: `go list
// -export -json std` costs a subprocess plus a full stdlib walk, and every
// loader (one per LoadModule/LoadFixture call — the analyzer fixture tests
// alone create dozens) needs the identical answer.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	pkgs, err := goList("", []string{"-export", "-json=ImportPath,Export", "std"})
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
})

// loader holds what one Load call shares across its type-checks. It is
// used from one goroutine.
type loader struct {
	fset *token.FileSet
	// gc imports the standard library from compiled export data.
	gc types.Importer
	// parsed memoizes ASTs by file name: a package and its test variants
	// share files, and go/types only reads the trees.
	parsed map[string]*ast.File
}

func newLoader() (*loader, error) {
	exports, err := stdExports()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		e, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(e)
	})
	return &loader{fset: fset, gc: gc, parsed: map[string]*ast.File{}}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// check parses files and type-checks them as package path, resolving
// imports through imp. Analyzers read only their target package's
// types.Info, so a dependency is checked with withInfo false.
func (l *loader) check(imp types.Importer, path, dir string, files []string, withInfo bool) (*Package, error) {
	asts := make([]*ast.File, 0, len(files))
	for _, f := range files {
		af, ok := l.parsed[f]
		if !ok {
			var err error
			if af, err = parser.ParseFile(l.fset, f, nil, parser.ParseComments); err != nil {
				return nil, err
			}
			l.parsed[f] = af
		}
		asts = append(asts, af)
	}
	var info *types.Info
	if withInfo {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, l.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: asts, Types: tpkg, Info: info}, nil
}

// LoadModule loads the packages matching the go-list patterns (typically
// "./...") from the module rooted at or above dir. A package with
// in-package tests is loaded as the variant go test builds, its _test.go
// files included; external (_test package) test files become a separate
// *Package with a "_test" path suffix, checked against the variants its
// test build imports. Results are in dependency order, and a package that
// fails to type-check always surfaces as an error (the first such, in that
// order) — never as a silently missing package.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	// The std listing newLoader waits for is independent of the module
	// listing: run the two subprocesses together. newLoader runs on every
	// path, so the listing goroutine has ended when LoadModule returns.
	go stdExports()
	listed, err := goList(dir, append([]string{"-deps", "-test", "-json=ImportPath,Dir,ForTest,DepOnly,Standard,GoFiles,Imports,ImportMap"}, patterns...))
	l, lerr := newLoader()
	if err != nil {
		return nil, err
	}
	if lerr != nil {
		return nil, lerr
	}
	// tested holds the packages with an in-package test variant, which
	// replaces the plain package as the analysis target; imported holds
	// every entry some entry imports.
	tested, imported := map[string]bool{}, map[string]bool{}
	for _, lp := range listed {
		if path, _, _ := strings.Cut(lp.ImportPath, " "); path == lp.ForTest {
			tested[path] = true
		}
		for _, imp := range lp.Imports {
			imported[imp] = true
		}
	}
	checked := map[string]*types.Package{}
	var pkgs []*Package
	for _, lp := range listed {
		// The "p.test" entries are the generated test mains. A plain
		// package superseded by its test variant that nothing imports (a
		// command with tests) would be checked for no one.
		if lp.Standard || (lp.ForTest == "" && strings.HasSuffix(lp.ImportPath, ".test")) ||
			(tested[lp.ImportPath] && !imported[lp.ImportPath]) {
			continue
		}
		imp := importerFunc(func(path string) (*types.Package, error) {
			if variant, ok := lp.ImportMap[path]; ok {
				path = variant
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return l.gc.Import(path)
		})
		path, _, _ := strings.Cut(lp.ImportPath, " ")
		target := !lp.DepOnly && (lp.ForTest != "" || !tested[path])
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.check(imp, path, lp.Dir, files, target)
		if err != nil {
			return nil, err
		}
		checked[lp.ImportPath] = pkg.Types
		if target {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// LoadFixture loads analyzer test fixtures: each path is resolved as
// root/<path> (the analysistest testdata/src convention) with every .go
// file in it. Imports of a fixture-root package resolve to its non-test
// files, checked once; anything else comes from stdlib export data.
func LoadFixture(root string, paths ...string) ([]*Package, error) {
	l, err := newLoader()
	if err != nil {
		return nil, err
	}
	deps := map[string]*types.Package{}
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if pkg, ok := deps[path]; ok {
			return pkg, nil
		}
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			return l.gc.Import(path)
		}
		files, err := goFiles(dir, false)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(imp, path, dir, files, false)
		if err != nil {
			return nil, err
		}
		deps[path] = pkg.Types
		return pkg.Types, nil
	}
	var pkgs []*Package
	for _, path := range paths {
		dir := filepath.Join(root, filepath.FromSlash(path))
		files, err := goFiles(dir, true)
		if err != nil {
			return nil, fmt.Errorf("lint: fixture %s: %w", path, err)
		}
		pkg, err := l.check(imp, path, dir, files, true)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// goFiles lists dir's .go files in name order, _test.go files only when
// withTests is set.
func goFiles(dir string, withTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	return files, nil
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

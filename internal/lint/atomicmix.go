package lint

// atomicmix flags mixed atomic/plain access to shared state: a struct field
// or package-level variable that some code updates through sync/atomic (or
// that has a typed-atomic type like atomic.Int64) being read — or
// read-modify-written (x++, x += n) — as a plain value elsewhere, with no
// lock held at the plain access. That mix is exactly how torn reads hide:
// the atomic side establishes that the value is concurrently written, so
// every other access must either be atomic too or sit inside a critical
// section.
//
// The atomic-use evidence is gathered module-wide: every non-test function
// of the current package and its in-module import closure contributes
// markers, so a field updated atomically in one package and read plainly in
// another is still caught (the interprocedural case the fixtures pin).
// Plain *writes* through `=` are deliberately not flagged — constructor and
// reset code initializes not-yet-shared values that way — and locals are
// never markers (the `atomic.Add` in a goroutine / plain read after
// `wg.Wait()` idiom is a legal join). Both are documented false negatives,
// as is access through an alias created by `&x.f`.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"avfda/internal/lint/cfg"
)

// AtomicMix flags fields/variables accessed atomically in one place and as
// plain unsynchronized values elsewhere.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flags struct fields and package variables updated via sync/atomic (or typed " +
		"atomics like atomic.Int64) that are also read or read-modify-written as plain " +
		"values without the guarding mutex held",
	Run: runAtomicMix,
}

// atomicWitness records where a variable was seen used atomically, for the
// diagnostic's cross-reference.
type atomicWitness struct {
	name string // display name ("(serve.proxyMetrics).copyErrs", "b.Shared")
	call string // "atomic.AddInt64"
	pos  token.Pos
}

func runAtomicMix(pass *Pass) error {
	// Atomic-use markers, module-wide: the current package's non-test
	// functions first (deterministic witness order), then the in-module
	// import closure.
	marks := map[*types.Var]atomicWitness{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		collectAtomicMarks(pass.Info, f, marks)
	}
	if pass.Funcs != nil {
		for _, path := range inModuleClosure(pass) {
			for _, fn := range pass.Funcs.FuncsIn(path) {
				src, ok := pass.Funcs.Source(fn)
				if !ok {
					continue
				}
				if pathIsTestFile(pass.Fset, src.Decl.Pos()) {
					continue
				}
				collectAtomicMarks(src.Info, src.Decl, marks)
			}
		}
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		funcBodies(f, func(_ string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkAtomicMix(pass, body, marks)
		})
	}
	return nil
}

// pathIsTestFile reports whether pos lies in a _test.go file.
func pathIsTestFile(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// collectAtomicMarks records every field/package-level variable whose
// address is passed to a sync/atomic function inside root (function
// literals and go statements included — atomic use anywhere is evidence).
func collectAtomicMarks(info *types.Info, root ast.Node, marks map[*types.Var]atomicWitness) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := calleeFunc(info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
			return true
		}
		if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
			// Typed-atomic methods need no marker: the field's type is the
			// evidence, checked at each use site.
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		u, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
		if !ok || u.Op != token.AND {
			return true
		}
		v, name := fieldOrPkgVar(info, u.X)
		if v == nil {
			return true
		}
		if _, seen := marks[v]; !seen {
			marks[v] = atomicWitness{name: name, call: "atomic." + callee.Name(), pos: call.Pos()}
		}
		return true
	})
}

// fieldOrPkgVar resolves e (index/deref layers stripped) to a struct field
// or package-level variable with a display name. Locals return nil: a local
// updated atomically and read after a join is legal, and the analysis
// cannot see the join.
func fieldOrPkgVar(info *types.Info, e ast.Expr) (*types.Var, string) {
	switch x := atomicBase(e).(type) {
	case *ast.Ident:
		if v, ok := info.ObjectOf(x).(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v, v.Pkg().Name() + "." + v.Name()
			}
		}
	case *ast.SelectorExpr:
		if selx, ok := info.Selections[x]; ok && selx.Kind() == types.FieldVal {
			if v, ok := selx.Obj().(*types.Var); ok {
				return v, "(" + typeDisplay(info.TypeOf(x.X)) + ")." + v.Name()
			}
		}
		// Package-qualified variable (pkg.Var).
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v, v.Pkg().Name() + "." + v.Name()
		}
	}
	return nil, ""
}

// atomicBase strips parens, index, and deref layers: the access class of
// locks[i] or *p.f is the base field/variable.
func atomicBase(e ast.Expr) ast.Expr {
	e = unparen(e)
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = unparen(x.X)
		case *ast.StarExpr:
			e = unparen(x.X)
		default:
			return e
		}
	}
}

// checkAtomicMix flags unsanctioned plain uses of marked or atomic-typed
// variables in one function body, suppressing uses made while any lock is
// held (the "guarding mutex" escape the invariant names).
func checkAtomicMix(pass *Pass, body *ast.BlockStmt, marks map[*types.Var]atomicWitness) {
	sanctioned := collectSanctioned(pass.Info, body)
	if !mentionsLockOp(pass, body) {
		// Lock-free body: every use is unguarded; one deep walk suffices
		// (function literals are pruned — they get their own visit).
		ast.Inspect(body, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			flagAtomicUse(pass, m, marks, sanctioned)
			return true
		})
		return
	}
	// Reuse lockcheck's held-set dataflow to know where a mutex guards the
	// access; block replay mirrors checkLocks.
	g := cfg.New(body)
	in := cfg.Forward(g, cfg.Flow[lockState]{
		Entry: lockState{},
		Transfer: func(n ast.Node, s lockState) lockState {
			return lockTransfer(pass, n, s)
		},
		Join:  joinLocks,
		Equal: equalLocks,
		Clone: cloneLocks,
	})
	for _, blk := range g.Blocks {
		s, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		s = cloneLocks(s)
		for _, n := range blk.Nodes {
			if len(s) == 0 {
				scanShallow(n, func(m ast.Node) bool {
					flagAtomicUse(pass, m, marks, sanctioned)
					return true
				})
			}
			s = lockTransfer(pass, n, s)
		}
	}
}

// collectSanctioned gathers the use nodes that are not plain reads: the
// operand of an address-of (&x.f — the shape atomic calls and legitimate
// aliasing use), the receiver base of any method selection (v.flag.Load()),
// and the targets of plain `=`/`:=` assignment (initialization writes, a
// documented false negative).
func collectSanctioned(info *types.Info, body ast.Node) map[ast.Node]bool {
	s := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				s[atomicBase(n.X)] = true
			}
		case *ast.SelectorExpr:
			// The Sel identifier is never a standalone use — the selector
			// node carries the access — so marking it prevents one access
			// from reporting twice (pkg.Var resolves at both nodes).
			s[n.Sel] = true
			if selx, ok := info.Selections[n]; ok && selx.Kind() == types.MethodVal {
				s[atomicBase(n.X)] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					s[atomicBase(lhs)] = true
				}
			}
		}
		return true
	})
	return s
}

// flagAtomicUse reports node m when it is an unsanctioned plain use of a
// marked or typed-atomic field/variable.
func flagAtomicUse(pass *Pass, m ast.Node, marks map[*types.Var]atomicWitness, sanctioned map[ast.Node]bool) {
	var v *types.Var
	var name string
	switch x := m.(type) {
	case *ast.SelectorExpr:
		if sanctioned[x] {
			return
		}
		v, name = fieldOrPkgVar(pass.Info, x)
	case *ast.Ident:
		if sanctioned[x] {
			return
		}
		// Bare identifier: only package-level variables qualify (fields are
		// always reached through a selector; the Sel of a selector resolves
		// there, not here, because fieldOrPkgVar requires package scope).
		if obj, ok := pass.Info.Uses[x].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			v, name = obj, obj.Pkg().Name()+"."+obj.Name()
		}
	default:
		return
	}
	if v == nil {
		return
	}
	if w, ok := marks[v]; ok {
		pass.Reportf(m.Pos(), "%s is updated atomically (%s at %s) but accessed as a plain value here; use the matching atomic load, or hold one mutex at every access",
			w.name, w.call, posShort(pass.Fset, w.pos))
		return
	}
	if isAtomicNamed(v.Type()) {
		pass.Reportf(m.Pos(), "%s has atomic type %s; copying the value races with its atomic users — access it only through its methods",
			name, typeDisplay(v.Type()))
	}
}

// isAtomicNamed reports whether t (after pointer indirection) is one of the
// typed atomics declared in sync/atomic (Bool, Int64, Pointer[T], Value, …).
func isAtomicNamed(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// inModuleClosure returns the sorted import paths of every source-checked
// in-module package reachable from the pass's package, excluding itself.
func inModuleClosure(pass *Pass) []string {
	seen := map[string]bool{pass.Pkg.Path(): true}
	var out []string
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if seen[imp.Path()] {
				continue
			}
			seen[imp.Path()] = true
			if len(pass.Funcs.FuncsIn(imp.Path())) > 0 {
				out = append(out, imp.Path())
			}
			walk(imp)
		}
	}
	walk(pass.Pkg)
	sort.Strings(out)
	return out
}

// typeDisplay renders a type name for diagnostics: pkg.Name for named
// types (after pointer indirection), the type string otherwise.
func typeDisplay(t types.Type) string {
	if t == nil {
		return "?"
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

// posShort renders a position as base-filename:line, for cross-file
// references inside one diagnostic message.
func posShort(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

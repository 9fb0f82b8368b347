package lint

// Type-resolution helpers for resleak:
// static callee resolution, type and function matching by package-path
// suffix, the root object of a selector chain, and the err-nil branch
// contract. Every analyzer reasons about one function body at a time;
// there is no call graph.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// pathSuffixMatch reports whether path ends with suffix on whole path
// segments ("internal/query" matches "avfda/internal/query" but not
// "avfda/internal/enquery"). Matching by suffix keeps the analyzers
// working against both the real module and the testdata fixture stubs.
func pathSuffixMatch(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// namedSuffixIs reports whether t (after pointer indirection) is a named
// type with the given name declared in a package whose import path ends
// with pathSuffix.
func namedSuffixIs(t types.Type, pathSuffix, name string) bool {
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
	return obj != nil && obj.Name() == name && obj.Pkg() != nil &&
		pathSuffixMatch(obj.Pkg().Path(), pathSuffix)
}

// calleeFunc resolves a call's static callee: a package-level function,
// a method (interface methods included), or a package-qualified function.
// Func-value and builtin calls return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// No Selection record: a package-qualified call (pkg.Func).
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// funcIs matches a callee against a package import path (exact for stdlib,
// suffix for module packages), an optional receiver type name ("" for
// package-level functions), and a set of function names.
func funcIs(fn *types.Func, pkgPath, recvName string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || !pathSuffixMatch(fn.Pkg().Path(), pkgPath) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recvName == "" {
		if sig.Recv() != nil {
			return false
		}
	} else if sig.Recv() == nil || !namedSuffixIs(sig.Recv().Type(), pkgPath, recvName) {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// rootObj returns the object of the identifier at the base of a
// selector/index/slice/deref chain ("resp" for resp.Body.Close,
// "v" for v.secs[i][a:b]), or nil when the chain bottoms out in a call or
// literal.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// wholeIdentObj returns the object when e is (after parens and unary &) a
// bare identifier — the shape that transfers ownership of the whole value.
func wholeIdentObj(info *types.Info, e ast.Expr) types.Object {
	e = unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	if id, ok := e.(*ast.Ident); ok {
		return info.ObjectOf(id)
	}
	return nil
}

// errNilEdge decodes a branch condition of the shape `err != nil` /
// `err == nil`: it returns the error object and whether the given edge
// outcome is the "err is non-nil" path. The stdlib (and module) contract
// this feeds: a constructor that returns a non-nil error returns a
// nil/absent resource, so no release is owed on the error path.
func errNilEdge(info *types.Info, cond ast.Expr, taken bool) (types.Object, bool) {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	x, y := unparen(be.X), unparen(be.Y)
	if isNilIdent(info, x) {
		x, y = y, x
	}
	if !isNilIdent(info, y) {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := info.ObjectOf(id)
	if obj == nil || !isErrorType(obj.Type()) {
		return nil, false
	}
	// NEQ taken-true and EQL taken-false are the error outcomes.
	errPath := (be.Op == token.NEQ) == taken
	return obj, errPath
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

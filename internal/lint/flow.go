package lint

// Shared helpers for the flow-sensitive analyzers: shallow node scanning
// that respects basic-block boundaries (resleak), and the context and
// request type queries ctxflow classifies values with.

import (
	"go/ast"
	"go/types"
)

// scanShallow visits n's subtree in source order, stopping at the
// boundaries that separate a cfg.Block node from code that executes
// elsewhere: function-literal bodies (another frame), go statements
// (another goroutine), and a RangeStmt's Body (its statements live in their
// own blocks; only the range header belongs to the loop-head block). The
// callback returning false prunes that subtree.
func scanShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.RangeStmt:
			if !f(m) {
				return false
			}
			// Visit the header (key, value, X) but not the body.
			for _, e := range []ast.Expr{m.Key, m.Value, m.X} {
				if e != nil {
					scanShallow(e, f)
				}
			}
			return false
		}
		if m == nil {
			return true
		}
		return f(m)
	})
}

// funcBodies yields every function body in f outside test files: FuncDecl
// bodies and FuncLit bodies, each analyzed as its own frame.
func funcBodies(f *ast.File, visit func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Name.Name, n.Type, n.Body)
			}
		case *ast.FuncLit:
			visit("func literal", n.Type, n.Body)
		}
		return true
	})
}

// namedPathIs reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func namedPathIs(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && namedPathIs(t, "context", "Context")
}

// isHTTPRequest reports whether t is *net/http.Request.
func isHTTPRequest(t types.Type) bool {
	return t != nil && namedPathIs(t, "net/http", "Request")
}

// signatureTakesContext reports whether the call's static callee signature
// has a context.Context parameter — the convention for cancellable,
// potentially blocking operations.
func signatureTakesContext(pass *Pass, call *ast.CallExpr) bool {
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

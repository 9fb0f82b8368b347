package lint

import (
	"go/ast"
)

// CtxFlow flags two ways of dropping an in-scope context.Context in
// internal/serve and internal/pipeline:
//
//   - calling context.Background() or context.TODO() inside a function that
//     already has a context in scope (a ctx parameter, or an *http.Request
//     whose Context() is one call away) — the fresh root context severs the
//     caller's cancellation;
//   - passing context.Background()/TODO() directly to a ctx-accepting
//     callee from a function with no context of its own — the context
//     parameter should be threaded through instead of minted at the call
//     site.
//
// The accepted idioms: derive with context.WithTimeout/WithCancel from the
// in-scope ctx, or take a ctx parameter and pass it down. Background() at
// the process root (main, tests) is out of scope by package selection.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "flags context.Background()/TODO() that discard an in-scope context, " +
		"and fresh root contexts minted at ctx-accepting call sites",
	// The packages where a context.Context is the cancellation spine: the
	// HTTP request path and the pipeline's worker fan-out. Dropping the
	// in-scope context there detaches work from request deadlines and
	// shutdown — the serving-layer bug class where a cancelled client
	// keeps a build running.
	Scope: []string{
		"internal/serve",
		"internal/pipeline",
	},
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !pass.InScope() {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		checkCtxFile(pass, f)
	}
	return nil
}

// ctxScope tracks, per function frame, whether a context is reachable.
type ctxScope struct {
	hasCtx bool
}

func checkCtxFile(pass *Pass, f *ast.File) {
	// argOf maps a context.Background()/TODO() call that appears as a direct
	// argument to the enclosing call, so the diagnostic can name the callee
	// being robbed of its caller's context.
	argOf := map[*ast.CallExpr]*ast.CallExpr{}
	ast.Inspect(f, func(n ast.Node) bool {
		outer, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range outer.Args {
			if inner, ok := arg.(*ast.CallExpr); ok && isCtxRoot(pass, inner) {
				argOf[inner] = outer
			}
		}
		return true
	})

	var walk func(n ast.Node, scope ctxScope)
	walk = func(n ast.Node, scope ctxScope) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncDecl:
				if m == n {
					return true // the frame being walked
				}
				return false
			case *ast.FuncLit:
				if m == n {
					return true
				}
				// A literal inherits the enclosing scope's context (closure
				// capture) and may add its own parameters.
				inner := scope
				if funcTypeHasCtx(pass, m.Type) {
					inner.hasCtx = true
				}
				walk(m, inner)
				return false
			case *ast.CallExpr:
				if !isCtxRoot(pass, m) {
					return true
				}
				name := "context." + m.Fun.(*ast.SelectorExpr).Sel.Name + "()"
				if scope.hasCtx {
					pass.Reportf(m.Pos(), "%s discards the in-scope context; pass ctx (or r.Context()) instead", name)
				} else if outer, isArg := argOf[m]; isArg && signatureTakesContext(pass, outer) {
					pass.Reportf(m.Pos(), "%s minted at a ctx-accepting call site; thread a context.Context parameter through %s", name, calleeName(outer))
				}
				return true
			}
			return true
		})
	}

	ast.Inspect(f, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			return true
		}
		walk(fd, ctxScope{hasCtx: funcTypeHasCtx(pass, fd.Type)})
		return false
	})
}

// isCtxRoot reports whether call is context.Background() or context.TODO().
func isCtxRoot(pass *Pass, call *ast.CallExpr) bool {
	if calleePkg(pass, call) != "context" {
		return false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	return sel.Sel.Name == "Background" || sel.Sel.Name == "TODO"
}

// funcTypeHasCtx reports whether a function type has a parameter that is a
// context.Context or an *http.Request (whose Context() carries the request
// context).
func funcTypeHasCtx(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isContextType(t) || isHTTPRequest(t) {
			return true
		}
	}
	return false
}

// calleeName renders the callee of a call for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return selString(fn)
	}
	return "the callee"
}

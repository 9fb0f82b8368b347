package lint

// Call-graph plumbing for the interprocedural (generation-3) analyzer,
// resleak: static callee resolution, receiver-first operand indexing, and
// the summary scheduler that walks the module-local call graph bottom-up.
//
// The call graph is implicit: summarize(fn) recursively summarizes fn's
// callees before fn itself, memoizing per function, which visits the
// graph's SCC condensation in reverse topological order. Members of a
// multi-function SCC see their in-progress mates as unknown callees and
// fall back to the conservative summary — a must-property can never be
// proven from an unproven cycle. Unknown callees also include everything
// resolved from export data (the standard library), interface and
// func-value dispatch, and reflection; those are the suite's documented
// false-negative classes (DESIGN.md §25).

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

// calleeFunc resolves a call's static callee together with its operand
// expressions in receiver-first order: for a method call x.M(a, b) it
// returns [x, a, b], aligning with operandVars of the callee. Interface
// methods resolve (their *types.Func is returned) but have no body in the
// FuncIndex, so summary lookups on them miss — the conservative path.
// Func-value and builtin calls return nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, []ast.Expr) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn, call.Args
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn, append([]ast.Expr{fun.X}, call.Args...)
			}
			return nil, nil
		}
		// No Selection record: a package-qualified call (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn, call.Args
		}
	}
	return nil, nil
}

// operandVars returns fn's operand variables receiver-first: the receiver
// (for methods) followed by the declared parameters. Indices align with
// the expressions calleeFunc returns for a call site.
func operandVars(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
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

// summaries caches resleak's per-function release summaries for one pass.
// A pass runs on one goroutine, so the cache is unsynchronized; the
// FuncIndex behind it is shared and locked.
type summaries struct {
	ix *FuncIndex

	rel     map[*types.Func]*relSummary
	relBusy map[*types.Func]bool
}

func newSummaries(ix *FuncIndex) *summaries {
	return &summaries{
		ix:      ix,
		rel:     map[*types.Func]*relSummary{},
		relBusy: map[*types.Func]bool{},
	}
}

// release returns fn's resource-release summary, or nil for unknown
// callees (no source, or an SCC mate mid-computation) — the conservative
// answer.
func (s *summaries) release(fn *types.Func) *relSummary {
	if s == nil || fn == nil {
		return nil
	}
	fn = fn.Origin()
	if sum, ok := s.rel[fn]; ok {
		return sum
	}
	if s.relBusy[fn] {
		return nil
	}
	src, ok := s.ix.Source(fn)
	if !ok {
		return nil
	}
	s.relBusy[fn] = true
	sum := computeRelSummary(s, fn, src)
	delete(s.relBusy, fn)
	s.rel[fn] = sum
	return sum
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

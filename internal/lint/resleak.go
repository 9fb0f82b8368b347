package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"avfda/internal/lint/cfg"
)

// Resleak flags resources acquired but not provably closed, released, or
// handed off on every CFG path to return: opened files (os.Open family),
// HTTP response bodies (http.Get family, Client.Do), mapped snapshot views
// (snapshot2.Open/OpenSeed), and sync.Pool borrows. It checks one function
// at a time: the function that acquires a resource owns it, and must
// close it, release it, Pool.Put it, return it, send or store it, or pass
// the whole value to a callee (drain(resp), relayResponse(w, resp, ...)),
// after which the callee owns it. Passing part of it (closeBody(resp.Body))
// is not a hand-off, so the acquirer must still close it. The `resp, err
// := http.Get(u); if err != nil { return err }` contract is modeled, also
// as a case of a tagless switch (`switch { case err == nil: ... }`): on
// the error edge the resource is nil and owes no Close.
//
// Known false negatives (deliberate, to keep the clean-tree guarantee
// FP-free): resources laundered through interface or func-value calls,
// aliased before close, handed whole to a callee that neither releases
// nor keeps them, or returned by a module helper that is not one of the
// acquirers above (the helper returns it, so its caller is not checked).
var Resleak = &Analyzer{
	Name: "resleak",
	Doc: "flags files, response bodies, snapshot views, and pool borrows not " +
		"closed, released, returned, or handed whole to a callee on every path to return",
	Run: runResleak,
}

// releaseNames are method names that release the resource rooted at their
// receiver chain: f.Close(), resp.Body.Close(), view.Close(), v.Release().
var releaseNames = map[string]bool{"Close": true, "Release": true}

// resFact is one live resource: what it is, where it was acquired, and the
// error variable (if any) assigned alongside it.
type resFact struct {
	kind   string
	pos    token.Pos
	errObj types.Object
}

// resState maps live resource objects to their facts. The join is union
// (may-leak), so a resource released on one arm but not the other survives
// to the exit report.
type resState map[types.Object]resFact

// resEngine checks one package's function bodies.
type resEngine struct {
	info *types.Info
}

// acquires classifies a call that returns a resource the caller owns as
// its first result, returning the resource's kind.
func (e *resEngine) acquires(call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(e.info, call)
	switch {
	case funcIs(fn, "os", "", "Open", "Create", "OpenFile", "CreateTemp"):
		return "file", true
	case funcIs(fn, "net/http", "", "Get", "Post", "PostForm", "Head"),
		funcIs(fn, "net/http", "Client", "Do", "Get", "Post", "PostForm", "Head"):
		return "response body", true
	case funcIs(fn, "internal/snapshot2", "", "Open", "OpenSeed"):
		return "snapshot view", true
	case funcIs(fn, "sync", "Pool", "Get"):
		return "pool borrow", true
	}
	return "", false
}

// releasedRoot returns the root object one call releases, or nil:
// Close/Release methods rooted at the object (resp.Body.Close() releases
// resp), and Pool.Put of the borrow.
func (e *resEngine) releasedRoot(call *ast.CallExpr) types.Object {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
		return rootObj(e.info, sel.X)
	}
	if funcIs(calleeFunc(e.info, call), "sync", "Pool", "Put") && len(call.Args) == 1 {
		return wholeIdentObj(e.info, call.Args[0])
	}
	return nil
}

// callEffects applies every call inside a block node to the state:
// released roots are removed as closed; a tracked resource passed whole as
// an argument transfers ownership to the callee, so it is untracked
// (false-negative direction, never a false positive). Projections like
// io.ReadAll(resp.Body) or closeBody(resp.Body) are not ownership
// transfers and keep the resource tracked.
func (e *resEngine) callEffects(n ast.Node, s resState) {
	scanShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		delete(s, e.releasedRoot(call))
		for _, arg := range call.Args {
			if o := wholeIdentObj(e.info, arg); o != nil {
				delete(s, o)
			}
		}
		return true
	})
}

// untrackWhole drops tracking when e appears as a whole value (aliasing,
// returning, sending — ownership moved).
func (e *resEngine) untrackWhole(expr ast.Expr, s resState) {
	if o := wholeIdentObj(e.info, expr); o != nil {
		delete(s, o)
	}
}

// acquireCall unwraps `pool.Get().(*T)` and parens down to the call.
func acquireCall(expr ast.Expr) *ast.CallExpr {
	expr = unparen(expr)
	if ta, ok := expr.(*ast.TypeAssertExpr); ok {
		expr = unparen(ta.X)
	}
	call, _ := expr.(*ast.CallExpr)
	return call
}

// assignEffects handles one assignment shape: call effects, aliasing
// escapes, then new acquisitions.
func (e *resEngine) assignEffects(lhs, rhs []ast.Expr, s resState) {
	for _, r := range rhs {
		e.callEffects(r, s)
		e.untrackWhole(r, s)
	}
	// Reassigning a tracked variable abandons the old resource; storing
	// into a field escapes the new one (never tracked).
	for _, l := range lhs {
		if id, ok := unparen(l).(*ast.Ident); ok {
			delete(s, e.info.ObjectOf(id))
		}
	}
	if len(rhs) != 1 {
		return
	}
	call := acquireCall(rhs[0])
	if call == nil {
		return
	}
	kind, ok := e.acquires(call)
	if !ok {
		return
	}
	id, ok := unparen(lhs[0]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := e.info.ObjectOf(id)
	if obj == nil {
		return
	}
	var errObj types.Object
	for _, l := range lhs[1:] {
		if lid, ok := unparen(l).(*ast.Ident); ok && lid.Name != "_" {
			if o := e.info.ObjectOf(lid); o != nil && isErrorType(o.Type()) {
				errObj = o
			}
		}
	}
	s[obj] = resFact{kind: kind, pos: call.Pos(), errObj: errObj}
}

// transfer applies one CFG node to the live-resource state.
func (e *resEngine) transfer(n ast.Node, s resState) resState {
	switch n := n.(type) {
	case *ast.AssignStmt:
		e.assignEffects(n.Lhs, n.Rhs, s)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, name := range vs.Names {
					lhs[i] = name
				}
				e.assignEffects(lhs, vs.Values, s)
			}
		}
	case *ast.DeferStmt:
		// Deferred releases run on every path to return; counting them at
		// the defer point is what makes `defer resp.Body.Close()` satisfy
		// the all-paths obligation.
		if fl, ok := unparen(n.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					delete(s, e.releasedRoot(call))
				}
				return true
			})
		} else {
			e.callEffects(n, s)
		}
	case *ast.GoStmt:
		// The spawned goroutine may close or keep the resource; either
		// way this frame can no longer prove anything about it.
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				delete(s, e.info.ObjectOf(id))
			}
			return true
		})
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			e.callEffects(r, s)
			e.untrackWhole(r, s)
		}
	case *ast.SendStmt:
		e.callEffects(n, s)
		e.untrackWhole(n.Value, s)
	case *ast.RangeStmt:
		// Loop header only (see cfg package comment).
	default:
		e.callEffects(n, s)
	}
	return s
}

func cloneRes(s resState) resState {
	out := make(resState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (e *resEngine) flow() cfg.Flow[resState] {
	return cfg.Flow[resState]{
		Entry:    resState{},
		Transfer: e.transfer,
		Clone:    cloneRes,
		Join: func(a, b resState) resState {
			out := cloneRes(a)
			for k, v := range b {
				out[k] = v
			}
			return out
		},
		Equal: func(a, b resState) bool {
			if len(a) != len(b) {
				return false
			}
			for k, v := range a {
				w, ok := b[k]
				if !ok || v.pos != w.pos {
					return false
				}
			}
			return true
		},
		Branch: func(cond ast.Expr, taken bool, s resState) resState {
			if obj, errPath := errNilEdge(e.info, cond, taken); errPath {
				// Non-nil error means the paired resource is nil (the
				// stdlib constructor contract): nothing to close here.
				for k, f := range s {
					if f.errObj != nil && f.errObj == obj {
						delete(s, k)
					}
				}
			}
			return s
		},
	}
}

func runResleak(pass *Pass) error {
	if !pass.InScope() {
		return nil
	}
	e := &resEngine{info: pass.Info}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		funcBodies(f, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			e.checkBody(pass, body)
		})
	}
	return nil
}

// checkBody reports the function's leaks: resources still live in the exit
// state, plus acquisitions whose result is discarded outright.
func (e *resEngine) checkBody(pass *Pass, body *ast.BlockStmt) {
	inspectSkipFuncLit(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call := acquireCall(n.X); call != nil {
				if kind, ok := e.acquires(call); ok {
					pass.Reportf(call.Pos(), "%s acquired and immediately discarded; close it or assign it", kind)
				}
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			call := acquireCall(n.Rhs[0])
			if call == nil {
				return true
			}
			kind, ok := e.acquires(call)
			if !ok {
				return true
			}
			if id, ok := unparen(n.Lhs[0]).(*ast.Ident); ok && id.Name == "_" {
				pass.Reportf(call.Pos(), "%s assigned to the blank identifier can never be closed", kind)
			}
		}
		return true
	})

	g := cfg.New(body)
	ins := cfg.Forward(g, e.flow())
	exit, ok := ins[g.Exit]
	if !ok {
		return
	}
	reported := map[token.Pos]bool{}
	for _, fact := range exit {
		if reported[fact.pos] {
			continue
		}
		reported[fact.pos] = true
		pass.Reportf(fact.pos, "%s acquired here is not closed/released on every path to return", fact.kind)
	}
}

// inspectSkipFuncLit walks n skipping function-literal bodies (they are
// analyzed as their own frames by funcBodies).
func inspectSkipFuncLit(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m == nil {
			return true
		}
		return f(m)
	})
}

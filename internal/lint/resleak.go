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
// (snapshot2.Open/OpenSeed), sync.Pool borrows, and module helpers whose
// summary says they return a caller-owned resource. A resource stops being
// the caller's problem when it is returned, sent, stored away, or passed
// whole to a callee — unless the callee's interprocedural summary proves
// it releases the operand on all paths, in which case the pass counts it
// as closed (the relayResponse/defer-in-helper idiom). The `resp, err :=
// http.Get(u); if err != nil { return err }` contract is modeled: on the
// error edge the resource is nil and owes no Close.
//
// Known false negatives (deliberate, to keep the clean-tree guarantee
// FP-free): resources laundered through interface or func-value calls,
// aliased before close, closed only inside an SCC-recursive helper, or
// handed to a helper that neither provably releases nor returns them.
var Resleak = &Analyzer{
	Name: "resleak",
	Doc: "flags files, response bodies, snapshot views, and pool borrows not " +
		"closed/released on every path to return (interprocedural: a helper " +
		"whose summary closes its argument counts)",
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

// resEngine is the shared machinery between the caller-side analyzer and
// the must-release summary computation.
type resEngine struct {
	info *types.Info
	sums *summaries
}

// acquires classifies a call that returns a resource the caller owns,
// returning its kind and the index of the resource in the call's results.
func (e *resEngine) acquires(call *ast.CallExpr) (string, int, bool) {
	fn, _ := calleeFunc(e.info, call)
	if fn == nil {
		return "", 0, false
	}
	switch {
	case funcIs(fn, "os", "", "Open", "Create", "OpenFile", "CreateTemp"):
		return "file", 0, true
	case funcIs(fn, "net/http", "", "Get", "Post", "PostForm", "Head"),
		funcIs(fn, "net/http", "Client", "Do", "Get", "Post", "PostForm", "Head"):
		return "response body", 0, true
	case funcIs(fn, "internal/snapshot2", "", "Open", "OpenSeed"):
		return "snapshot view", 0, true
	case funcIs(fn, "sync", "Pool", "Get"):
		return "pool borrow", 0, true
	}
	if sum := e.sums.release(fn); sum != nil && sum.ReturnsResource {
		return sum.ResourceKind, sum.ResourceResult, true
	}
	return "", 0, false
}

// releasedRoots returns the root objects one call releases: Close/Release
// methods rooted at the object (resp.Body.Close() releases resp),
// Pool.Put of the borrow, and module callees whose summary proves an
// operand released.
func (e *resEngine) releasedRoots(call *ast.CallExpr) []types.Object {
	var out []types.Object
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && releaseNames[sel.Sel.Name] {
		if o := rootObj(e.info, sel.X); o != nil {
			out = append(out, o)
		}
	}
	fn, args := calleeFunc(e.info, call)
	if fn == nil {
		return out
	}
	if funcIs(fn, "sync", "Pool", "Put") && len(call.Args) == 1 {
		if o := wholeIdentObj(e.info, call.Args[0]); o != nil {
			out = append(out, o)
		}
	}
	if sum := e.sums.release(fn); sum != nil {
		for i, rel := range sum.Releases {
			if rel && i < len(args) {
				if o := rootObj(e.info, args[i]); o != nil {
					out = append(out, o)
				}
			}
		}
	}
	return out
}

// callEffects applies every call inside a block node to the state:
// released roots are removed as closed; a tracked resource passed whole as
// an argument without a proven release transfers ownership somewhere this
// analysis cannot see, so it is untracked (false-negative direction,
// never a false positive). Projections like io.ReadAll(resp.Body) are not
// ownership transfers and keep the resource tracked.
func (e *resEngine) callEffects(n ast.Node, s resState) {
	scanShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, o := range e.releasedRoots(call) {
			delete(s, o)
		}
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
	kind, ri, ok := e.acquires(call)
	if !ok || ri >= len(lhs) {
		return
	}
	id, ok := unparen(lhs[ri]).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := e.info.ObjectOf(id)
	if obj == nil {
		return
	}
	var errObj types.Object
	for i, l := range lhs {
		if i == ri {
			continue
		}
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
					for _, o := range e.releasedRoots(call) {
						delete(s, o)
					}
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
	e := &resEngine{info: pass.Info, sums: newSummaries(pass.Funcs)}
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
				if kind, _, ok := e.acquires(call); ok {
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
			kind, ri, ok := e.acquires(call)
			if !ok || ri >= len(n.Lhs) {
				return true
			}
			if id, ok := unparen(n.Lhs[ri]).(*ast.Ident); ok && id.Name == "_" {
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

// A relSummary is the resleak-facing summary of one module function.
type relSummary struct {
	// Releases[i] reports that operand i (receiver-first) is closed,
	// released, or returned to its pool on every path from entry to
	// return.
	Releases []bool
	// ReturnsResource marks functions whose result ResourceResult is a
	// fresh resource the caller owns (an acquirer wrapper).
	ReturnsResource bool
	ResourceResult  int
	ResourceKind    string
}

// computeRelSummary derives a function's release summary: a must-analysis
// (intersection join) over its CFG tracking which operands have been
// released, plus a syntactic pass for the acquirer-wrapper shape.
func computeRelSummary(sums *summaries, fn *types.Func, src FuncSource) *relSummary {
	ops := operandVars(fn)
	sum := &relSummary{Releases: make([]bool, len(ops))}
	e := &resEngine{info: src.Info, sums: sums}

	opIdx := map[types.Object]int{}
	for i, v := range ops {
		opIdx[v] = i
	}

	release := func(s uint64, call *ast.CallExpr) uint64 {
		for _, o := range e.releasedRoots(call) {
			if i, ok := opIdx[o]; ok {
				s |= 1 << uint(i)
			}
		}
		return s
	}
	g := cfg.New(src.Decl.Body)
	ins := cfg.Forward(g, cfg.Flow[uint64]{
		Entry: 0,
		Transfer: func(n ast.Node, s uint64) uint64 {
			if d, ok := n.(*ast.DeferStmt); ok {
				if fl, ok := unparen(d.Call.Fun).(*ast.FuncLit); ok {
					ast.Inspect(fl.Body, func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok {
							s = release(s, call)
						}
						return true
					})
					return s
				}
			}
			scanShallow(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					s = release(s, call)
				}
				return true
			})
			return s
		},
		Join:  func(a, b uint64) uint64 { return a & b },
		Equal: func(a, b uint64) bool { return a == b },
		Clone: func(s uint64) uint64 { return s },
	})
	if rel, ok := ins[g.Exit]; ok {
		for i := range ops {
			sum.Releases[i] = rel&(1<<uint(i)) != 0
		}
	}

	// Acquirer wrappers: a return whose result is a fresh acquisition (or
	// a local holding one) hands the resource to the caller.
	acquired := map[types.Object]string{}
	inspectSkipFuncLit(src.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call := acquireCall(as.Rhs[0])
		if call == nil {
			return true
		}
		kind, ri, ok := e.acquires(call)
		if !ok || ri >= len(as.Lhs) {
			return true
		}
		if id, ok := unparen(as.Lhs[ri]).(*ast.Ident); ok && id.Name != "_" {
			if o := src.Info.ObjectOf(id); o != nil {
				acquired[o] = kind
			}
		}
		return true
	})
	inspectSkipFuncLit(src.Decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || sum.ReturnsResource {
			return true
		}
		for i, r := range ret.Results {
			if call := acquireCall(r); call != nil {
				if kind, _, ok := e.acquires(call); ok {
					sum.ReturnsResource, sum.ResourceResult, sum.ResourceKind = true, i, kind
					return false
				}
			}
			if o := wholeIdentObj(src.Info, r); o != nil {
				if kind, ok := acquired[o]; ok {
					sum.ReturnsResource, sum.ResourceResult, sum.ResourceKind = true, i, kind
					return false
				}
			}
		}
		return true
	})
	return sum
}

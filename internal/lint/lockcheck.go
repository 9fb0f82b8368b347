package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"avfda/internal/lint/cfg"
)

// LockCheck walks every function body's control-flow graph tracking which
// sync.Mutex / sync.RWMutex receivers are held at each program point, and
// reports three violation classes:
//
//   - a lock acquired on some path but not released (directly or by a
//     deferred unlock) before the function exits — the partial-unlock bug
//     that deadlocks the next caller;
//   - a blocking operation — channel send/receive, range over a channel,
//     time.Sleep, WaitGroup.Wait, a call whose signature accepts a
//     context.Context, or I/O through an interface-typed writer — executed
//     while any lock is held, the singleflight-cache bug class: the lock
//     outlives its critical section and serializes slow I/O;
//   - a lock acquired while another (or the same) one is held. Nested
//     locks are how lock-order deadlocks start, and the module takes one
//     lock at a time, so the rule is kept absolute rather than ordered.
//
// The accepted idioms: release before blocking or locking again (snapshot
// shared state under the lock, do the slow work outside), and `defer
// mu.Unlock()` immediately after the acquire. Sends/receives inside a
// `select` with a `default` clause are non-blocking and not flagged.
// Goroutine bodies launched with `go` run on their own stack and are
// analyzed as their own frames. The check is intraprocedural: a lock taken
// inside a callee while the caller holds another is not seen.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc: "flags Mutex/RWMutex locks not released on every path, locks taken while another " +
		"is held, and blocking calls (channel ops, ctx-accepting callees, interface-writer " +
		"I/O) made while a lock is held",
	Run: runLockCheck,
}

// lockKey identifies one acquisition: the receiver expression's source text,
// the lock kind ('W' for Lock, 'R' for RLock), and the acquire site. Keeping
// the site in the key lets two acquisitions of the same mutex on different
// paths report independently.
type lockKey struct {
	expr string
	kind byte
	pos  token.Pos
}

// heldLock is the per-acquisition fact: deferred means an unlock for this
// receiver is registered via defer on every path joined so far.
type heldLock struct {
	deferred bool
}

type lockState map[lockKey]heldLock

func runLockCheck(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		funcBodies(f, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkLocks(pass, name, body)
		})
	}
	return nil
}

func checkLocks(pass *Pass, name string, body *ast.BlockStmt) {
	// Fast path: skip the dataflow entirely for lock-free functions.
	if !mentionsLockOp(pass, body) {
		return
	}
	nonBlocking := nonBlockingComms(body)
	g := cfg.New(body)
	flow := cfg.Flow[lockState]{
		Entry: lockState{},
		Transfer: func(n ast.Node, s lockState) lockState {
			return lockTransfer(pass, n, s)
		},
		Join:  joinLocks,
		Equal: equalLocks,
		Clone: cloneLocks,
	}
	in := cfg.Forward(g, flow)

	// Replay each reachable block to place blocking-while-held and
	// nested-acquire diagnostics, applying the transfer after the check so
	// the acquiring statement is not flagged against itself.
	reported := map[token.Pos]bool{}
	for _, blk := range g.Blocks {
		s, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		s = cloneLocks(s)
		for _, n := range blk.Nodes {
			// Deferred calls execute at return, not here; their lock effects
			// are handled by the transfer function.
			_, isDefer := n.(*ast.DeferStmt)
			if len(s) > 0 && !isDefer {
				k := earliestLock(s)
				held, line := k.expr+lockVerb(k.kind), pass.Fset.Position(k.pos).Line
				if desc, pos := blockingDesc(pass, n, nonBlocking); desc != "" && !reported[pos] {
					reported[pos] = true
					pass.Reportf(pos, "%s while %s is held (acquired at line %d); release the lock before blocking",
						desc, held, line)
				}
				scanShallow(n, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if expr, kind, acquire, ok := lockOp(pass, call); ok && acquire && !reported[call.Pos()] {
						reported[call.Pos()] = true
						pass.Reportf(call.Pos(), "%s while %s is held (acquired at line %d); nested locks can deadlock, release %s first",
							expr+lockVerb(kind), held, line, k.expr)
					}
					return true
				})
			}
			s = lockTransfer(pass, n, s)
		}
	}

	// Leak check: any acquisition still held at Exit without a deferred
	// unlock on every path escapes the function locked.
	if exit, ok := in[g.Exit]; ok {
		var leaks []lockKey
		for k, h := range exit {
			if !h.deferred {
				leaks = append(leaks, k)
			}
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
		for _, k := range leaks {
			pass.Reportf(k.pos, "%s acquired in %s is not released on every return path; unlock before returning or `defer %s`",
				k.expr+lockVerb(k.kind), name, k.expr+unlockName(k.kind))
		}
	}
}

func lockVerb(kind byte) string {
	if kind == 'R' {
		return ".RLock()"
	}
	return ".Lock()"
}

func unlockName(kind byte) string {
	if kind == 'R' {
		return ".RUnlock()"
	}
	return ".Unlock()"
}

// earliestLock returns the earliest-acquired held lock, for stable
// diagnostics when several locks are held.
func earliestLock(s lockState) lockKey {
	var best lockKey
	first := true
	for k := range s {
		if first || k.pos < best.pos {
			best, first = k, false
		}
	}
	return best
}

// lockTransfer applies one block node's lock effects to the state.
func lockTransfer(pass *Pass, n ast.Node, s lockState) lockState {
	switch n := n.(type) {
	case *ast.GoStmt:
		// The spawned call runs on another goroutine's stack; its lock
		// operations are that frame's business (funcBodies analyzes the
		// literal separately).
		return s
	case *ast.DeferStmt:
		markDeferredUnlocks(pass, n, s)
		return s
	}
	scanShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		expr, kind, acquire, ok := lockOp(pass, call)
		if !ok {
			return true
		}
		if acquire {
			s[lockKey{expr, kind, call.Pos()}] = heldLock{}
		} else {
			for k := range s {
				if k.expr == expr && k.kind == kind {
					delete(s, k)
				}
			}
		}
		return true
	})
	return s
}

// markDeferredUnlocks marks currently-held locks whose unlock is registered
// by d — either `defer mu.Unlock()` directly or a deferred closure whose
// body unlocks.
func markDeferredUnlocks(pass *Pass, d *ast.DeferStmt, s lockState) {
	mark := func(expr string, kind byte) {
		for k, h := range s {
			if k.expr == expr && k.kind == kind {
				h.deferred = true
				s[k] = h
			}
		}
	}
	if expr, kind, acquire, ok := lockOp(pass, d.Call); ok && !acquire {
		mark(expr, kind)
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if expr, kind, acquire, ok := lockOp(pass, call); ok && !acquire {
					mark(expr, kind)
				}
			}
			return true
		})
	}
}

// lockOp classifies call as a lock operation on a sync.Mutex or
// sync.RWMutex receiver (including one promoted from an embedded field),
// returning the receiver's source text, the lock kind, and whether the
// operation acquires.
func lockOp(pass *Pass, call *ast.CallExpr) (expr string, kind byte, acquire bool, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock":
		kind, acquire = 'W', sel.Sel.Name == "Lock"
	case "RLock", "RUnlock":
		kind, acquire = 'R', sel.Sel.Name == "RLock"
	default:
		return "", 0, false, false
	}
	if isSyncMutex(pass.Info.TypeOf(sel.X)) {
		return types.ExprString(sel.X), kind, acquire, true
	}
	// Promoted method from an embedded Mutex: resolve through the selection.
	if selx, found := pass.Info.Selections[sel]; found {
		if fn, isFn := selx.Obj().(*types.Func); isFn {
			sig := fn.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil && isSyncMutex(recv.Type()) {
				return types.ExprString(sel.X), kind, acquire, true
			}
		}
	}
	return "", 0, false, false
}

// isSyncMutex reports whether t (after pointer indirection) is sync.Mutex
// or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	return namedPathIs(t, "sync", "Mutex") || namedPathIs(t, "sync", "RWMutex")
}

// mentionsLockOp is a cheap syntactic prefilter: does the body contain any
// Lock/RLock selector call at all?
func mentionsLockOp(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if _, _, _, isLock := lockOp(pass, call); isLock {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// nonBlockingComms collects the communication statements of every `select`
// that has a `default` clause: those sends/receives never block.
func nonBlockingComms(body *ast.BlockStmt) map[ast.Node]bool {
	set := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				set[cc.Comm] = true
			}
		}
		return true
	})
	return set
}

// blockingDesc classifies node n as a blocking operation, returning a short
// description and the position to report, or "" if n cannot block.
func blockingDesc(pass *Pass, n ast.Node, nonBlocking map[ast.Node]bool) (string, token.Pos) {
	if nonBlocking[n] {
		return "", token.NoPos
	}
	var desc string
	var pos token.Pos
	scanShallow(n, func(m ast.Node) bool {
		if desc != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.SendStmt:
			if !nonBlocking[m] {
				desc, pos = "channel send", m.Arrow
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				desc, pos = "channel receive", m.OpPos
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(m.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					desc, pos = "range over channel", m.For
				}
			}
		case *ast.CallExpr:
			if _, _, _, isLock := lockOp(pass, m); isLock {
				return true
			}
			if d := blockingCall(pass, m); d != "" {
				desc, pos = d, m.Pos()
			}
		}
		return desc == ""
	})
	return desc, pos
}

// blockingCall classifies a call expression as blocking: time.Sleep,
// WaitGroup/Cond Wait, a callee whose signature accepts a context.Context
// (the cancellable-operation convention), or I/O routed through an
// interface-typed writer (fmt.Fprint*, io.WriteString, io.Copy, or a
// Write/WriteString/Read method on an interface value).
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	switch calleePkg(pass, call) {
	case "time":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
			return "time.Sleep"
		}
	case "fmt":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Fprint", "Fprintf", "Fprintln":
				if len(call.Args) > 0 && isInterfaceValue(pass, call.Args[0]) {
					return "I/O write via fmt." + sel.Sel.Name
				}
			}
		}
	case "io":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "WriteString", "Copy":
				if len(call.Args) > 0 && isInterfaceValue(pass, call.Args[0]) {
					return "I/O write via io." + sel.Sel.Name
				}
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		recvT := pass.Info.TypeOf(sel.X)
		switch sel.Sel.Name {
		case "Wait":
			if recvT != nil && (namedPathIs(recvT, "sync", "WaitGroup") || namedPathIs(recvT, "sync", "Cond")) {
				return selString(sel)
			}
		case "Write", "WriteString", "Read":
			if isInterfaceValue(pass, sel.X) {
				return "I/O via " + selString(sel)
			}
		}
	}
	if signatureTakesContext(pass, call) {
		return "call to a context-accepting function"
	}
	return ""
}

// isInterfaceValue reports whether e's static type is an interface — the
// signature of I/O whose latency the caller cannot bound (network writers,
// hijacked connections).
func isInterfaceValue(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func joinLocks(a, b lockState) lockState {
	out := cloneLocks(a)
	for k, h := range b {
		if prev, ok := out[k]; ok {
			// Deferred only if deferred on every joined path.
			out[k] = heldLock{deferred: prev.deferred && h.deferred}
		} else {
			out[k] = h
		}
	}
	return out
}

func equalLocks(a, b lockState) bool {
	if len(a) != len(b) {
		return false
	}
	for k, h := range a {
		if bh, ok := b[k]; !ok || bh != h {
			return false
		}
	}
	return true
}

func cloneLocks(s lockState) lockState {
	out := make(lockState, len(s))
	for k, h := range s {
		out[k] = h
	}
	return out
}

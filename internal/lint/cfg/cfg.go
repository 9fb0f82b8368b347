// Package cfg builds intra-procedural control-flow graphs over go/ast
// function bodies and provides a small forward dataflow driver, the
// foundation of avlint's flow-sensitive resource-leak analyzer, resleak.
// Like the rest of internal/lint it is built on the standard library only,
// so `go run ./cmd/avlint ./...` keeps working in offline, dependency-free
// environments.
//
// # Scope and limits
//
// The graph is intra-procedural and syntactic: one Graph per function body,
// no call-graph, no alias analysis, no SSA. Basic blocks hold the executable
// nodes of the function in execution order — simple statements (assignments,
// calls, sends, defers, returns) plus the condition/tag expressions of the
// control statements that split blocks. Control statements themselves never
// appear as block nodes, with one deliberate exception: a RangeStmt heads
// its own loop block, standing for its header (key, value and ranged
// expression), and scanners must not descend into its Body, whose
// statements live in their own blocks.
//
// Edges cover if/else, for (cond/post/infinite), range, switch and type
// switch (including fallthrough and missing default), select (one edge per
// communication clause), labeled break/continue, goto, return, and panic.
// Return edges to the synthetic Exit block; panic and calls that provably
// never return (os.Exit, runtime.Goexit, log.Fatal*) terminate their block
// without reaching Exit, so "on every path to return" analyses do not flag
// abort paths. Deferred calls stay in their blocks as DeferStmt nodes;
// run-at-exit semantics are interpreted by the analyzers (resleak counts
// `defer resp.Body.Close()` as a release on every path from the defer on).
//
// Code after a terminating statement starts a fresh block with no
// predecessors; the dataflow driver never visits unreachable blocks.
//
// # Branch conditions
//
// Blocks that end in a boolean condition (if statements and for loops with
// a condition) record it in Block.Branch, together with which successor is
// taken when the condition is true and which when it is false. The dataflow
// driver exposes this through Flow.Branch, letting an analysis refine the
// state per edge — the load-bearing case is the `if err != nil { return }`
// idiom, where a resource paired with err is nil (and needs no release) on
// the error edge. A tagless switch (`switch { case err == nil: ... }`) is
// the if-else chain it evaluates, one Branch per case expression. Tagged
// switch, type switch and select dispatch is not modeled as branch
// conditions; analyses see the unrefined join there.
package cfg

import (
	"go/ast"
	"go/token"
)

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first. It may be empty.
	Entry *Block
	// Exit is the synthetic block every return (and the fall-off-the-end
	// path) edges to. It holds no nodes.
	Exit *Block
	// Blocks lists every block, Entry first, Exit last, in creation order
	// (roughly source order).
	Blocks []*Block
}

// A Block is one basic block: a maximal run of nodes with a single entry
// and a single exit point.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Nodes are the executable nodes in execution order: simple statements
	// and the condition/tag expressions of the control statements that end
	// the block. See the package comment for the RangeStmt exception.
	Nodes []ast.Node
	// Succs and Preds are the control-flow edges.
	Succs []*Block
	// Preds mirrors Succs.
	Preds []*Block
	// Branch, when non-nil, records that the block ends by evaluating a
	// boolean condition and names the successor taken on each outcome.
	Branch *Branch
}

// A Branch is a conditional block exit: Cond is the if/for condition whose
// value selects between the True and False successors. Both appear in the
// block's Succs; the dataflow driver uses the pair to refine edge states.
type Branch struct {
	// Cond is the condition expression (the block's last node).
	Cond ast.Expr
	// True is the successor taken when Cond evaluates true.
	True *Block
	// False is the successor taken when Cond evaluates false.
	False *Block
}

// New builds the control-flow graph of one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{}
	b := &builder{g: g, labels: map[string]*labelTarget{}}
	g.Entry = b.newBlock()
	g.Exit = &Block{}
	b.cur = g.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, g.Exit)
	}
	b.resolveGotos()
	g.Exit.Index = len(g.Blocks)
	g.Blocks = append(g.Blocks, g.Exit)
	return g
}

// builder tracks the construction state: the block under construction and
// the active break/continue/goto targets.
type builder struct {
	g   *Graph
	cur *Block // nil after a terminating statement

	// breakTargets and continueTargets stack the enclosing loop/switch
	// targets, innermost last, each with the label of its enclosing
	// LabeledStmt ("" when unlabeled).
	breakTargets    []branchTarget
	continueTargets []branchTarget
	// pendingLabel is the label of a LabeledStmt whose inner statement is
	// about to be built; loops and switches consume it for their targets.
	pendingLabel string
	// labels maps label names to their blocks for goto resolution.
	labels map[string]*labelTarget
	// gotos are forward gotos waiting for their label's block.
	gotos []pendingGoto
	// fallthroughTo is the next case clause's block while a switch clause
	// body is being built.
	fallthroughTo *Block
}

type branchTarget struct {
	label string
	block *Block
}

type labelTarget struct {
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
	pos   token.Pos
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends an executable node to the current block, starting a fresh
// unreachable block if the previous statement terminated control flow.
func (b *builder) add(n ast.Node) {
	b.reach()
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// reach ensures a current block exists (unreachable code gets a fresh,
// predecessor-less block).
func (b *builder) reach() {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	// Any statement other than the one a pending label belongs to clears it.
	label := b.pendingLabel
	b.pendingLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminalCall(s.X) {
			b.cur = nil
		}
	case *ast.EmptyStmt:
		// no node
	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	thenBlk := b.newBlock()
	b.edge(cond, thenBlk)
	b.cur = thenBlk
	b.stmts(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	if s.Else != nil {
		elseBlk := b.newBlock()
		b.edge(cond, elseBlk)
		cond.Branch = &Branch{Cond: s.Cond, True: thenBlk, False: elseBlk}
		b.cur = elseBlk
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	join := b.newBlock()
	if thenEnd != nil {
		b.edge(thenEnd, join)
	}
	if s.Else == nil {
		b.edge(cond, join)
		cond.Branch = &Branch{Cond: s.Cond, True: thenBlk, False: join}
	} else if elseEnd != nil {
		b.edge(elseEnd, join)
	}
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.reach()
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	after := b.newBlock()
	if s.Cond != nil {
		b.edge(head, after)
	}

	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}
	b.pushTargets(label, after, cont)
	body := b.newBlock()
	b.edge(head, body)
	if s.Cond != nil {
		head.Branch = &Branch{Cond: s.Cond, True: body, False: after}
	}
	b.cur = body
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.popTargets()
	if post != nil {
		b.cur = post
		b.stmt(s.Post)
		if b.cur != nil {
			b.edge(b.cur, head)
		}
	}
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	b.reach()
	head := b.newBlock()
	b.edge(b.cur, head)
	// The whole RangeStmt heads the loop block (see the package comment);
	// shallow scanners must not descend into s.Body.
	head.Nodes = append(head.Nodes, s)
	after := b.newBlock()
	b.edge(head, after) // the range may be empty

	b.pushTargets(label, after, head)
	body := b.newBlock()
	b.edge(head, body)
	b.cur = body
	b.stmts(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.popTargets()
	b.cur = after
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.reach()
	if s.Tag == nil {
		b.condSwitch(s, label)
		return
	}
	b.add(s.Tag)
	cond := b.cur
	after := b.newBlock()
	b.pushTargets(label, after, nil)
	b.caseClauses(s.Body.List, cond, after, func(c *ast.CaseClause, blk *Block) {
		for _, e := range c.List {
			blk.Nodes = append(blk.Nodes, e)
		}
	})
	b.popTargets()
	b.cur = after
}

// condSwitch wires a tagless switch as the if-else chain it evaluates:
// each case expression, in source order, ends a test block whose Branch
// enters its clause when true and tests the next expression when false;
// the last test's false edge enters the default clause, or after without
// one.
func (b *builder) condSwitch(s *ast.SwitchStmt, label string) {
	after := b.newBlock()
	b.pushTargets(label, after, nil)
	clauses := s.Body.List
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
	}
	test, dflt := b.cur, after
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			dflt = blocks[i]
		}
		for _, e := range cc.List {
			test.Nodes = append(test.Nodes, e)
			next := b.newBlock()
			b.edge(test, blocks[i])
			b.edge(test, next)
			test.Branch = &Branch{Cond: e, True: blocks[i], False: next}
			test = next
		}
	}
	b.edge(test, dflt)
	b.clauseBodies(clauses, blocks, after)
	b.popTargets()
	b.cur = after
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.reach()
	b.add(s.Assign)
	cond := b.cur
	after := b.newBlock()
	b.pushTargets(label, after, nil)
	b.caseClauses(s.Body.List, cond, after, nil)
	b.popTargets()
	b.cur = after
}

// caseClauses wires the shared switch shape: one block per clause, all fed
// from cond, fallthrough edging to the next clause's block, and an edge
// from cond to after when no default exists.
func (b *builder) caseClauses(clauses []ast.Stmt, cond, after *Block, head func(*ast.CaseClause, *Block)) {
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cl := range clauses {
		blocks[i] = b.newBlock()
		b.edge(cond, blocks[i])
		if cc, ok := cl.(*ast.CaseClause); ok {
			if cc.List == nil {
				hasDefault = true
			}
			if head != nil {
				head(cc, blocks[i])
			}
		}
	}
	if !hasDefault {
		b.edge(cond, after)
	}
	b.clauseBodies(clauses, blocks, after)
}

// clauseBodies builds each case clause's body into its block, fallthrough
// edging to the next clause's block and the end of each body to after.
func (b *builder) clauseBodies(clauses []ast.Stmt, blocks []*Block, after *Block) {
	for i, cl := range clauses {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.cur = blocks[i]
		saved := b.fallthroughTo
		b.fallthroughTo = nil
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		}
		b.stmts(cc.Body)
		b.fallthroughTo = saved
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	b.reach()
	cond := b.cur
	after := b.newBlock()
	b.pushTargets(label, after, nil)
	any := false
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		b.edge(cond, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.popTargets()
	if !any {
		// `select {}` blocks forever; nothing follows.
		b.cur = nil
		return
	}
	b.cur = after
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	b.reach()
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breakTargets, label); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := findTarget(b.continueTargets, label); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.GOTO:
		if lt, ok := b.labels[label]; ok {
			b.edge(b.cur, lt.block)
		} else {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label, pos: s.Pos()})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(b.cur, b.fallthroughTo)
		}
		b.cur = nil
	}
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	b.reach()
	lbl := b.newBlock()
	b.edge(b.cur, lbl)
	b.cur = lbl
	b.labels[s.Label.Name] = &labelTarget{block: lbl}
	b.pendingLabel = s.Label.Name
	b.stmt(s.Stmt)
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if lt, ok := b.labels[g.label]; ok {
			b.edge(g.from, lt.block)
		}
	}
}

func (b *builder) pushTargets(label string, brk, cont *Block) {
	b.breakTargets = append(b.breakTargets, branchTarget{label: label, block: brk})
	if cont != nil {
		b.continueTargets = append(b.continueTargets, branchTarget{label: label, block: cont})
	} else {
		// Switches and selects are break targets but not continue targets;
		// push a tombstone so pops stay paired.
		b.continueTargets = append(b.continueTargets, branchTarget{label: label, block: nil})
	}
}

func (b *builder) popTargets() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

// findTarget resolves a break/continue target: the innermost entry when
// unlabeled, the matching entry otherwise. Nil-block entries (switch/select
// continue tombstones) are skipped.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		t := stack[i]
		if t.block == nil {
			continue
		}
		if label == "" || t.label == label {
			return t.block
		}
	}
	return nil
}

// isTerminalCall reports whether e is a call that never returns: the panic
// builtin, os.Exit, runtime.Goexit, or log.Fatal/Fatalf/Fatalln. These are
// matched syntactically (by selector shape) rather than through go/types so
// the builder stays usable before type checking.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fn.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fn.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

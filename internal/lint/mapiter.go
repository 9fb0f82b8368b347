package lint

import (
	"go/ast"
	"go/types"
)

// writeFuncs are callee names that make map-iteration order observable:
// stream writes, prints, and hash feeds.
var writeFuncs = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Print": true, "Printf": true, "Println": true,
	"Sum": true, "Sum256": true, "Sum512": true,
}

// MapIter flags `for range` over a map inside determinism-critical packages
// when the loop body makes the iteration order observable — by writing
// output, feeding a hash, or appending to a slice that is never sorted
// afterwards in the same block. Go randomizes map iteration order, so any
// such loop breaks the run-to-run byte-identity the pipeline guarantees.
//
// The accepted idioms are the ones the codebase already uses: collect the
// keys, sort them, and range over the sorted slice (`sortedKeys`), or
// append inside the loop and sort the result before it escapes
// (`sort.Slice(keys, ...)` directly after the loop). Per-key writes into
// another map (`out[k] = append(out[k], v)`) are order-independent and not
// flagged.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flags order-sensitive `for range` over maps in determinism-critical packages; " +
		"iterate sorted keys instead",
	// Everything whose output feeds a byte-identity or stable-wire
	// invariant: consolidated DB ordering, snapshot encoding, report
	// rendering, frame materialization, query results, stats summaries,
	// and the serving layer's rendered responses and metrics text.
	Scope: []string{
		"internal/core",
		"internal/snapshot2",
		"internal/report",
		"internal/frame",
		"internal/query",
		"internal/stats",
		"internal/serve",
	},
	Run: runMapIter,
}

func runMapIter(pass *Pass) error {
	if !pass.InScope() {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				rs, ok := stmt.(*ast.RangeStmt)
				if !ok {
					continue
				}
				if _, ok := pass.Info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
					continue
				}
				checkMapRange(pass, rs, block.List[i+1:])
			}
			return true
		})
	}
	return nil
}

// checkMapRange inspects one range-over-map body; rest is the statement
// tail of the enclosing block, scanned for the append-then-sort idiom.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, rest []ast.Stmt) {
	var appended []*ast.Ident // plain-ident append targets, in source order
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && writeFuncs[sel.Sel.Name] {
				pass.Reportf(rs.For, "write to %s inside `for range` over a map: map iteration order is random; iterate sorted keys instead", selString(sel))
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) || i >= len(n.Lhs) {
					continue
				}
				// Appending to an indexed element (out[k] = append(out[k], v))
				// touches each key once and is order-independent; only a
				// plain slice variable accumulates in iteration order.
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					appended = append(appended, id)
				}
			}
		}
		return true
	})
	for _, id := range appended {
		if !sortedAfter(pass, id, rest) {
			pass.Reportf(rs.For, "%q is appended in map-iteration order and never sorted in this block; sort it before use or range over sorted keys", id.Name)
		}
	}
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether any statement in rest sorts the object id
// refers to, via a sort.* or slices.* call that mentions it (including
// inside a less-func closure).
func sortedAfter(pass *Pass, id *ast.Ident, rest []ast.Stmt) bool {
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSortCall(pass, call) {
				return true
			}
			ast.Inspect(call, func(m ast.Node) bool {
				if ref, ok := m.(*ast.Ident); ok && pass.Info.Uses[ref] == obj {
					found = true
				}
				return !found
			})
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isSortCall reports whether call invokes the sort or slices package.
func isSortCall(pass *Pass, call *ast.CallExpr) bool {
	pkg := calleePkg(pass, call)
	return pkg == "sort" || pkg == "slices"
}

// calleePkg returns the import path of the package a pkg.Func call selects
// from, or "" if the callee is not a package-level selector.
func calleePkg(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// selString renders pkg.Func / recv.Method for diagnostics.
func selString(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

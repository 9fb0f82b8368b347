package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestLocksAreScoped pins the package's one way of taking a mutex, the way
// that cannot leave it held: Lock as the first statement of a function
// body and `defer Unlock()` on the same receiver as the second (Cache.locked,
// Metrics.Observe and snapshot, proxyMetrics.locked). Any other Lock or
// Unlock call in non-test code fails, so an unlock missing on some path
// cannot be written.
func TestLocksAreScoped(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		scoped := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			}
			if body == nil || len(body.List) < 2 {
				return true
			}
			first, ok := body.List[0].(*ast.ExprStmt)
			if !ok {
				return true
			}
			lock, _ := first.X.(*ast.CallExpr)
			unlock, _ := body.List[1].(*ast.DeferStmt)
			if unlock == nil {
				return true
			}
			recv, verb := lockOp(lock)
			if urecv, uverb := lockOp(unlock.Call); recv != "" && urecv == recv &&
				(verb == "Lock" && uverb == "Unlock" || verb == "RLock" && uverb == "RUnlock") {
				scoped[lock], scoped[unlock.Call] = true, true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !scoped[call] {
				if recv, verb := lockOp(call); recv != "" {
					t.Errorf("%s: %s.%s() outside a scoped `Lock(); defer Unlock()` helper",
						fset.Position(call.Pos()), recv, verb)
				}
			}
			return true
		})
	}
}

// lockOp returns the receiver text and method name of a Lock, Unlock,
// RLock, RUnlock or TryLock call, or "" for any other expression.
func lockOp(call *ast.CallExpr) (recv, verb string) {
	if call == nil {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return types.ExprString(sel.X), sel.Sel.Name
	}
	return "", ""
}

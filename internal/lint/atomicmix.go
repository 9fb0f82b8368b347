package lint

// atomicmix keeps mixed atomic/plain access out of the module by
// construction: it flags every non-test call to one of sync/atomic's
// package-level functions (atomic.AddInt64, atomic.LoadPointer,
// atomic.CompareAndSwapUint32, …). Those functions act on a plain int64 or
// pointer that any other code can also read or write without atomics, and
// that mix is how torn reads hide. A typed atomic (atomic.Int64,
// atomic.Pointer[T], …) keeps its value in an unexported field, so every
// access goes through its methods; copying one is caught by go vet's
// copylocks check. Test files are exempt: they may drive raw atomics on
// locals they own.

import (
	"go/ast"
	"go/types"
	"strings"
)

// AtomicMix flags non-test calls to sync/atomic's package-level functions.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "flags non-test calls to sync/atomic's package-level functions (AddInt64, " +
		"LoadPointer, ...), whose plain operands can also be accessed without atomics; " +
		"typed atomics like atomic.Int64 make that mix impossible",
	Run: runAtomicMix,
}

func runAtomicMix(pass *Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // a typed atomic's method: the sanctioned form
			}
			pass.Reportf(call.Pos(), "atomic.%s acts on a plain value that other code can read or write without atomics; declare it as %s and use its methods",
				callee.Name(), typedAtomic(callee.Name()))
			return true
		})
	}
	return nil
}

// typedAtomic names the typed atomic that replaces the package-level
// function fn: AddInt64 → atomic.Int64, LoadPointer → atomic.Pointer[T].
func typedAtomic(fn string) string {
	for _, op := range []string{"CompareAndSwap", "Add", "And", "Load", "Or", "Store", "Swap"} {
		if t, ok := strings.CutPrefix(fn, op); ok {
			if t == "Pointer" {
				return "atomic.Pointer[T]"
			}
			return "atomic." + t
		}
	}
	return "a typed atomic"
}

package lint_test

import (
	"testing"

	"avfda/internal/lint"
	"avfda/internal/lint/analysistest"
)

// TestAtomicMix drives atomicmix over its fixture: raw sync/atomic calls in
// non-test code are flagged with their typed-atomic replacement, while
// typed-atomic method calls and raw atomics in a _test.go file are
// accepted.
func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.AtomicMix, "amix")
}

package lint_test

import (
	"testing"

	"avfda/internal/lint"
	"avfda/internal/lint/analysistest"
)

// TestResleak drives resleak over resource fixtures: unclosed response
// bodies, files, snapshot views, and pool borrows are flagged (including a
// body closed only through a helper handed resp.Body); deferred closes,
// err-nil contracts, ownership returns, and whole-value hand-offs are
// accepted.
func TestResleak(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.Resleak, "rleak/a")
}

package lint_test

import (
	"testing"

	"avfda/internal/lint"
	"avfda/internal/lint/analysistest"
)

// TestLockCheck drives lockcheck over fixtures with leaked locks (early
// returns past Lock/RLock, including promoted embedded mutexes) and
// blocking operations inside critical sections (channel send, interface-
// writer I/O, ctx-accepting callees, time.Sleep, WaitGroup.Wait), plus the
// accepted idioms: snapshot-then-render, balanced unlocks, defers,
// select-with-default, and goroutine bodies as separate frames.
func TestLockCheck(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.LockCheck, "lock/a")
}

// TestLockCheckNestedAcquire drives lockcheck's nested-acquire rule: a
// mutex taken while another is held (directly, on the same mutex, or read
// under write) is flagged;
// release-then-acquire and locking inside a spawned goroutine are
// accepted, and a lock taken inside a callee is the documented miss.
func TestLockCheckNestedAcquire(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), lint.LockCheck, "lock/nested")
}

package amix

import "sync/atomic"

// countInTest uses a raw atomic on a local it owns: test files are exempt.
func countInTest() int64 {
	var n int64
	atomic.AddInt64(&n, 1)
	return atomic.LoadInt64(&n)
}

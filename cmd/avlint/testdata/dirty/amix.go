package dirty

import "sync/atomic"

// tally updates a plain int64 through sync/atomic, so Read can return it
// without atomics: the stable atomicmix finding the output-mode tests
// assert on.
type tally struct {
	n int64
}

func (t *tally) Add() {
	atomic.AddInt64(&t.n, 1)
}

func (t *tally) Read() int64 {
	return t.n
}

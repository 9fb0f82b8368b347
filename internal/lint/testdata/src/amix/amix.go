// Package amix exercises atomicmix: a non-test call to one of sync/atomic's
// package-level functions is flagged, with the typed atomic that replaces
// it; typed-atomic method calls are accepted.
package amix

import (
	"sync/atomic"
	"unsafe"
)

type Counter struct {
	hits int64
	gen  unsafe.Pointer
	n    atomic.Int64
	ok   atomic.Bool
}

// Incr updates a plain int64 atomically: other code can still read it
// plainly.
func (c *Counter) Incr() {
	atomic.AddInt64(&c.hits, 1) // want `atomic\.AddInt64 acts on a plain value .*; declare it as atomic\.Int64 and use its methods`
}

// Gen loads a raw pointer atomically.
func (c *Counter) Gen() unsafe.Pointer {
	return atomic.LoadPointer(&c.gen) // want `declare it as atomic\.Pointer\[T\]`
}

// Typed drives typed atomics through their methods: accepted.
func (c *Counter) Typed() int64 {
	c.ok.Store(true)
	if c.ok.Load() {
		return c.n.Add(1)
	}
	return c.n.Load()
}

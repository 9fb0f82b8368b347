// Package a declares a type whose constructor exists only in a's
// in-package test files, so the external test can build one.
package a

// T is the value b consumes.
type T struct {
	n int
}

// N reports the value's count.
func (t T) N() int { return t.n }

// Package b imports a, so go test recompiles it as b [a.test] when a's
// external test imports both.
package b

import "variantsfixture/a"

// Use takes an a.T.
func Use(t a.T) int { return t.N() }

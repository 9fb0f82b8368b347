package a

// NewT is visible to a_test only: go test compiles it into a [a.test].
func NewT() T { return T{n: 1} }

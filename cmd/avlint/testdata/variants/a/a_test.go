package a_test

import (
	"errors"
	"strings"
	"testing"

	"variantsfixture/a"
	"variantsfixture/b"
)

// TestUse type-checks only when b is checked against a [a.test]: a.NewT
// returns that variant's T, and b.Use must accept it.
func TestUse(t *testing.T) {
	if b.Use(a.NewT()) != 1 {
		t.Fatal("Use")
	}
	err := errors.New("variant")
	if strings.Contains(err.Error(), "variant") {
		t.Log("the deliberate errsubstr finding")
	}
}

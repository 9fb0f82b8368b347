// Package snapshot2 (fixture; the path suffix puts it in nondeterm's
// scope, and errsubstr runs everywhere) puts an errsubstr and a nondeterm
// violation on the same source line so the suppression test can pin that
// a //lint:allow for one analyzer does not hide the other's diagnostic on
// that line.
package snapshot2

import (
	"strings"
	"time"
)

// errsubstrAllowed: only errsubstr is suppressed; nondeterm must survive.
func errsubstrAllowed(err error) bool {
	//lint:allow errsubstr fixture: suppression must stay per-analyzer
	return strings.Contains(err.Error(), time.Now().Weekday().String())
}

// nondetermAllowed: only nondeterm is suppressed; errsubstr must survive.
func nondetermAllowed(err error) bool {
	//lint:allow nondeterm fixture: suppression must stay per-analyzer
	return strings.Contains(err.Error(), time.Now().Weekday().String())
}

// bothFlagged has no allow: both analyzers fire on the one line.
func bothFlagged(err error) bool {
	return strings.Contains(err.Error(), time.Now().Weekday().String())
}

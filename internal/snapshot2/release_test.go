package snapshot2

import (
	"runtime"
	"testing"
	"time"

	"avfda/internal/core"
)

// TestUnreachableViewFreedInOneCollection: once a mapped View is
// unreachable, the collection that finds it dead also frees what it
// cached, here its materialized database. A finalizer on the View itself
// would keep the View, and everything it references, alive until one more
// collection after the finalizer ran.
func TestUnreachableViewFreedInOneCollection(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSeed(dir, 1, testDB(1, 50, 3)); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{}, 1)
	func() {
		v, err := OpenSeed(dir, 1)
		if err != nil {
			t.Fatal(err)
		}
		db, err := v.Database()
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(db, func(*core.DB) { freed <- struct{}{} })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("an unreachable View's database survived the collection that found it dead")
	}
}

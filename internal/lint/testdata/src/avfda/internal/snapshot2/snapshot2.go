// Stub of avfda/internal/snapshot2 for resleak fixtures: the analyzer
// matches Open/OpenSeed and View.Close by package path and names, and the
// fixture root shadows the real module, so this skeletal version keeps
// fixtures small.
package snapshot2

// View is a mapped snapshot.
type View struct {
	data []byte
}

// Open maps a snapshot file.
func Open(path string) (*View, error) { return &View{}, nil }

// OpenSeed maps the snapshot for one study seed.
func OpenSeed(dir string, seed int64) (*View, error) { return &View{}, nil }

// Close unmaps the view.
func (v *View) Close() error { return nil }

// NumRows is a scalar accessor.
func (v *View) NumRows() int { return len(v.data) }

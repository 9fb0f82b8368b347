package snapshot2

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestViewResultsDoNotAliasSnapshot pins the View's ownership contract:
// nothing an exported method returns points into the snapshot's bytes, so
// a caller may keep any answer after Close unmaps them. Every exported
// method is called through reflection, on the first and last row of every
// column, on every string id and on every answer slot, and every string
// and slice
// reachable from its results is checked against the mapping's address
// range. A new method with a parameter kind the test cannot supply fails
// the test until the test learns to call it.
func TestViewResultsDoNotAliasSnapshot(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteSeed(dir, 7, testDB(7, 120, 12)); err != nil {
		t.Fatal(err)
	}
	v, err := OpenSeed(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	lo := uintptr(unsafe.Pointer(unsafe.SliceData(v.data)))
	hi := lo + uintptr(len(v.data))
	rows := []int{0, v.NumRows() - 1}

	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumMethod(); i++ {
		m := rv.Type().Method(i)
		if m.Name == "Close" {
			continue // called by the defer; its error aliases nothing
		}
		var calls [][]reflect.Value
		switch mt := rv.Method(i).Type(); {
		case mt.NumIn() == 0:
			calls = [][]reflect.Value{nil}
		case mt.NumIn() == 1 && mt.In(0).Kind() == reflect.Int:
			for _, row := range rows {
				calls = append(calls, []reflect.Value{reflect.ValueOf(row)})
			}
		case mt.NumIn() == 2 && mt.In(0) == reflect.TypeFor[Column]() && mt.In(1).Kind() == reflect.Int:
			for c := ColManufacturer; c <= ColModality; c++ {
				for _, row := range rows {
					calls = append(calls, []reflect.Value{reflect.ValueOf(c), reflect.ValueOf(row)})
				}
			}
		case mt.NumIn() == 2 && mt.In(0) == reflect.TypeFor[Column]() && mt.In(1).Kind() == reflect.Int64:
			// A (column, code) pair: every string id, and each enum
			// column's codes on the first and last row.
			for id := range v.NumStrings() {
				calls = append(calls, []reflect.Value{reflect.ValueOf(ColManufacturer), reflect.ValueOf(int64(id))})
			}
			for c := ColTag; c <= ColModality; c++ {
				for _, row := range rows {
					calls = append(calls, []reflect.Value{reflect.ValueOf(c), reflect.ValueOf(v.Code(c, row))})
				}
			}
		case mt.NumIn() == 2 && mt.In(0) == reflect.TypeFor[[]byte]() && mt.In(1).Kind() == reflect.Uint32:
			// A (dst, string id) pair: every string id, appended to a
			// nil and to a non-empty heap slice.
			for id := range v.NumStrings() {
				for _, dst := range [][]byte{nil, []byte("x")} {
					calls = append(calls, []reflect.Value{reflect.ValueOf(dst), reflect.ValueOf(uint32(id))})
				}
			}
		case mt.NumIn() == 1 && mt.In(0) == reflect.TypeFor[Slot]():
			for s := Slot(0); int(s) < NumSlots; s++ {
				calls = append(calls, []reflect.Value{reflect.ValueOf(s)})
			}
		case mt.NumIn() == 2 && mt.In(0) == reflect.TypeFor[[]byte]() && mt.In(1) == reflect.TypeFor[Slot]():
			// A (dst, slot) pair: every answer slot, appended to a nil and
			// to a non-empty heap slice.
			for s := Slot(0); int(s) < NumSlots; s++ {
				for _, dst := range [][]byte{nil, []byte("x")} {
					calls = append(calls, []reflect.Value{reflect.ValueOf(dst), reflect.ValueOf(s)})
				}
			}
		case mt.NumIn() == 2 && mt.In(0).Kind() == reflect.String && mt.In(1).Kind() == reflect.Int64:
			// A (directory, seed) pair: the view writes itself out.
			calls = [][]reflect.Value{{reflect.ValueOf(t.TempDir()), reflect.ValueOf(int64(7))}}
		default:
			t.Fatalf("(*View).%s%s: no arguments known for this signature; extend this test", m.Name, mt)
		}
		for _, args := range calls {
			shown := make([]string, len(args))
			for k, a := range args {
				shown[k] = fmt.Sprintf("%#v", a.Interface())
			}
			call := m.Name + "(" + strings.Join(shown, ", ") + ")"
			for j, out := range rv.Method(i).Call(args) {
				w := aliasWalker{lo: lo, hi: hi, seen: map[uintptr]bool{}}
				if path := w.find(out, fmt.Sprintf("result %d", j)); path != "" {
					t.Errorf("(*View).%s: %s aliases the snapshot bytes", call, path)
				}
			}
		}
	}
}

// aliasWalker searches a value graph for a string or slice whose backing
// memory overlaps [lo, hi).
type aliasWalker struct {
	lo, hi uintptr
	seen   map[uintptr]bool
}

// overlaps reports whether [p, p+n) intersects the walker's range.
func (w *aliasWalker) overlaps(p, n uintptr) bool {
	return n > 0 && p < w.hi && w.lo < p+n
}

// find returns the path of the first aliasing string or slice reachable
// from v, or "".
func (w *aliasWalker) find(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.String:
		s := v.String()
		if w.overlaps(uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(len(s))) {
			return path
		}
	case reflect.Slice:
		if v.Len() > 0 && w.overlaps(v.Pointer(), uintptr(v.Len())*v.Type().Elem().Size()) {
			return path
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := w.find(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Pointer:
		if v.IsNil() || w.seen[v.Pointer()] {
			return ""
		}
		w.seen[v.Pointer()] = true
		return w.find(v.Elem(), path)
	case reflect.Interface:
		if !v.IsNil() {
			return w.find(v.Elem(), path)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := w.find(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			key := fmt.Sprintf("%s[%v]", path, it.Key())
			if p := w.find(it.Key(), key); p != "" {
				return p
			}
			if p := w.find(it.Value(), key); p != "" {
				return p
			}
		}
	}
	return ""
}

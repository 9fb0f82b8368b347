//go:build unix

package snapshot2

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// Open maps the snapshot at path read-only and returns a validated View
// over the mapping. A missing file surfaces as fs.ErrNotExist (a plain
// cache-tier miss, not corruption); anything structurally wrong yields the
// package's typed errors. The mapping is released by Close or, failing
// that, by a finalizer once the View is unreachable. Late readers may keep
// materialized results after either, because nothing handed out aliases
// the mapped bytes; avserve's cache closes an evicted View when its last
// request lets go, and the finalizer covers views nobody closes.
//
// The length and checksum are validated against the mapped bytes before
// the View is returned, so a file truncated at write time is rejected here
// rather than faulting (SIGBUS) on a later page access; see DESIGN.md §7.
// Snapshots are replaced only by atomic rename, never truncated in place,
// so a validated mapping stays readable for its lifetime.
func Open(path string) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot2: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		// Zero-length mappings are invalid at the syscall level; a v2 file
		// is never empty, so classify it as the truncation it is.
		return nil, &FormatError{Reason: "empty file"}
	}
	if int64(int(size)) != size {
		return nil, &FormatError{Reason: "file too large to map"}
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Filesystems without mmap support (or exhausted map areas) fall
		// back to a heap read: same validation, same View semantics.
		return openHeap(path)
	}
	v, verr := NewView(data)
	if verr != nil {
		syscall.Munmap(data)
		return nil, verr
	}
	m := &mapping{data: data}
	runtime.SetFinalizer(m, (*mapping).unmap)
	v.closer = m.unmap
	return v, nil
}

// mapping owns one mapped region, and the finalizer sits on it rather than
// on the View. The View is the mapping's only referrer, so the two become
// unreachable together; a finalizer on the View would keep the View and its
// caches (the materialized database and decoded strings) alive
// through one more collection, while this small object is all that waits
// for the unmap.
type mapping struct{ data []byte }

// unmap releases the region, from View.Close or the finalizer; each runs
// at most once and Close clears the finalizer.
func (m *mapping) unmap() error {
	runtime.SetFinalizer(m, nil)
	return syscall.Munmap(m.data)
}

// Package a exercises resleak: unclosed response bodies, files, snapshot
// views, and pool borrows are flagged; deferred closes, error-edge nil
// contracts, ownership returns, and whole-value hand-offs to a helper are
// accepted, and a helper that closes only part of a resource is not.
package a

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"sync"

	"avfda/internal/snapshot2"
)

// forgotClose reads the body and never closes it; io.ReadAll(resp.Body) is
// a projection, not an ownership transfer.
func forgotClose(u string) string {
	resp, err := http.Get(u) // want "response body acquired here is not closed/released on every path to return"
	if err != nil {
		return ""
	}
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// deferredClose is the accepted idiom: the err-nil contract plus a
// deferred close covering every remaining path.
func deferredClose(u string) string {
	resp, err := http.Get(u)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// branchLeak closes on the fallthrough path but leaks on the early return.
func branchLeak(p string, skip bool) error {
	f, err := os.Open(p) // want "file acquired here is not closed/released on every path to return"
	if err != nil {
		return err
	}
	if skip {
		return nil
	}
	f.Close()
	return nil
}

// branchClosed closes on every path.
func branchClosed(p string, skip bool) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	if skip {
		f.Close()
		return nil
	}
	f.Close()
	return nil
}

// discarded drops the resource on the floor at the statement level.
func discarded(p string) {
	os.Open(p) // want "file acquired and immediately discarded; close it or assign it"
}

// blanked can never be closed.
func blanked(u string) {
	_, _ = http.Get(u) // want "response body assigned to the blank identifier can never be closed"
}

// returned hands ownership to the caller: never flagged.
func returned(p string) (*os.File, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return f, nil
}

var bufPool sync.Pool

// poolLeak borrows a buffer and never puts it back.
func poolLeak() {
	b := bufPool.Get().(*bytes.Buffer) // want "pool borrow acquired here is not closed/released on every path to return"
	b.Reset()
}

// poolReturned is the borrow/reset/put cycle the serving layer uses.
func poolReturned() {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	defer bufPool.Put(b)
}

// viewLeak maps a snapshot and forgets it on the success path.
func viewLeak(dir string) (int, error) {
	v, err := snapshot2.OpenSeed(dir, 42) // want "snapshot view acquired here is not closed/released on every path to return"
	if err != nil {
		return 0, err
	}
	return v.NumRows(), nil
}

// viewClosed is the accepted shape.
func viewClosed(dir string) (int, error) {
	v, err := snapshot2.OpenSeed(dir, 42)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	return v.NumRows(), nil
}

// viewSwitch is avquery's shape: a tagless switch on the error, the view
// returned on the err == nil case and nil on the other error cases.
func viewSwitch(dir string) (*snapshot2.View, error) {
	v, err := snapshot2.OpenSeed(dir, 42)
	switch {
	case err == nil:
		return v, nil
	case err.Error() != "":
		return nil, err
	}
	return nil, nil
}

// viewSwitchLeak drops the view on a case that a switch on the error
// reaches with err == nil.
func viewSwitchLeak(dir string, quiet bool) error {
	v, err := snapshot2.OpenSeed(dir, 42) // want "snapshot view acquired here is not closed/released on every path to return"
	switch {
	case err != nil:
		return err
	case quiet:
		return nil
	}
	return v.Close()
}

// drain is the relayResponse idiom: handed the whole response, the helper
// owns the close.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// helperCloses hands the body to a helper whose summary closes it.
func helperCloses(u string) error {
	resp, err := http.Get(u)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// closeBody closes part of a response it was handed.
func closeBody(b io.ReadCloser) {
	b.Close()
}

// partialHandoff passes only the body to a helper: resp stays with this
// function, which never closes it.
func partialHandoff(u string) error {
	resp, err := http.Get(u) // want "response body acquired here is not closed/released on every path to return"
	if err != nil {
		return err
	}
	closeBody(resp.Body)
	return nil
}

package snapshot2_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

// FuzzSnapshot2Read hardens the v2 reader against arbitrary input:
// whatever bytes land in the file, Open must either return a valid View or
// one of the typed corruption errors (*FormatError, *VersionError,
// *ChecksumError) — never panic, never fault on a page access, never hand
// back a view alongside an error. The seed corpus covers the boundary
// inputs from the property tests: a fully valid snapshot, header and
// payload truncations, single-bit flips in the version, checksum, section
// directory, and payload regions, re-sealed section-offset corruption
// (valid checksum over a broken directory), out-of-range enum codes and
// non-finite miles behind a valid checksum, and trailing garbage. A view
// that validates must also filter through the engine's column codes
// exactly as through its string comparisons, whatever its string table
// holds: two ids whose texts fold together are a case the encoder never
// writes. Its stored answers must check against its columns to nil or an
// *AnswerError, never a panic.
func FuzzSnapshot2Read(f *testing.F) {
	const headerLen = snapshot2.HeaderLen
	valid, err := snapshot2.Encode(snapshot2.TestDB(7, 12, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(snapshot2.Magic))        // bare magic, truncated header
	f.Add(valid[:headerLen])              // header only, missing payload
	f.Add(valid[:headerLen+len(valid)/4]) // mid-payload truncation
	f.Add(append(bytes.Clone(valid), 0))  // trailing byte
	magic := len(snapshot2.Magic)
	for _, i := range []int{magic, magic + 2, magic + 10, headerLen, headerLen + 8, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[i] ^= 0x40
		f.Add(mut)
	}
	// Section-offset corruption behind a valid checksum: the directory
	// validators, not the CRC, must catch a broken tiling.
	payload := bytes.Clone(valid[headerLen:])
	off := binary.LittleEndian.Uint64(payload[4+20+4:])
	binary.LittleEndian.PutUint64(payload[4+20+4:], off+1)
	f.Add(snapshot2.Reseal(valid, payload))
	// Out-of-range codes and non-finite miles behind a valid checksum.
	f.Add(snapshot2.OddCodes(valid))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.avsnap2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, err := snapshot2.Open(path)
		if err != nil {
			if !snapshot2.TypedSnapshotError(err) {
				t.Fatalf("untyped error for %d-byte input: %v", len(data), err)
			}
			if v != nil {
				t.Fatalf("Open returned both a view and error %v", err)
			}
			return
		}
		if v == nil {
			t.Fatal("Open returned nil view and nil error")
		}
		// A view that validated must be fully usable: every row readable,
		// filters on row 0's values answered alike by both paths, and the
		// materialized database must re-encode — what the reader accepts,
		// the writer can represent.
		for i := 0; i < v.NumRows(); i++ {
			_ = v.Manufacturer(i)
			_ = v.Time(i)
			_ = v.ReactionSeconds(i)
		}
		if v.NumRows() > 0 {
			eng := query.NewFromView(v)
			mfr, tag := v.Manufacturer(0), v.Tag(0)
			for _, f := range []query.Filter{
				{Manufacturer: mfr, Tag: tag},
				{Manufacturer: strings.ToUpper(mfr), Tag: strings.ToUpper(tag)},
			} {
				got, err := eng.Select(f)
				if err != nil {
					t.Fatal(err)
				}
				want, err := eng.SelectScan(f)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("filter %+v: Select %v, SelectScan %v", f, got, want)
				}
			}
		}
		// Enum columns are not range-checked at open, so arbitrary codes
		// reach the summary behind the answers: the check must finish with
		// a verdict.
		var ae *snapshot2.AnswerError
		if err := v.CheckAnswers(); err != nil && !errors.As(err, &ae) {
			t.Fatalf("CheckAnswers: untyped error %v", err)
		}
		db, err := v.Database()
		if err != nil {
			t.Fatalf("validated view failed to materialize: %v", err)
		}
		reenc, err := snapshot2.Encode(db)
		if err != nil {
			t.Fatalf("materialized database does not re-encode: %v", err)
		}
		if _, err := snapshot2.NewView(reenc); err != nil {
			t.Fatalf("re-encoded database does not validate: %v", err)
		}
		v.Close()
	})
}

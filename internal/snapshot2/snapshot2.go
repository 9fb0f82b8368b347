// Package snapshot2 persists a built study — the consolidated failure
// database (core.DB) — in a memory-mappable columnar layout (system #23 in
// DESIGN.md §2). It is the only on-disk study format.
//
// A format that deserializes the whole database into heap objects before
// the query engine can touch a single row costs O(study) allocation per
// cold load. The v2 layout is arranged so the query engine reads the file
// bytes in place — a View implements the column read surface query.Engine
// needs (interface query.Source) directly over the mapped file, with lazy
// string materialization and no per-row decoding. Opening a snapshot costs a
// checksum pass and a structural validation of the section directory;
// resident cost is pages of the mapped file, not heap, which is what makes
// thousands of concurrently-hot studies per node feasible.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "AVSNAP2\x00"
//	8       2     format version (currently 2)
//	10      8     payload length in bytes
//	18      4     CRC-32C (Castagnoli) of the payload
//	22      ...   payload
//
// The payload starts with a section directory — a count followed by
// {id uint32, offset uint64, length uint64} entries whose offsets are
// relative to the payload start — and the sections themselves, which must
// tile the payload contiguously in directory order. Sections:
//
//	meta          record counts for every table plus the string count
//	string table  cumulative uint32 offsets + a deduplicated UTF-8 blob
//	columns       one fixed-width section per column (uint32 string ids,
//	              int64 scalars, float64 bit patterns, uint8 flag bytes)
//	posting lists delta-encoded ascending row ids per distinct value of
//	              the manufacturer/tag/category inverted indexes
//
// Encoding the same database always yields the same bytes, so
// write→read→re-write round-trips are byte-identical (property-tested).
//
// Compatibility policy: readers reject every version other than their own,
// and a v1 file handed to the reader is rejected on the magic. Truncated or
// bit-flipped files are rejected with typed errors (*FormatError,
// *VersionError, *ChecksumError) before any byte is trusted; callers fall
// back to a pipeline rebuild. CRC-32C is an integrity check against
// accidental corruption (it catches every single-byte flip and every
// truncation, via the length field), not a cryptographic seal — snapshots
// are local cache artifacts.
package snapshot2

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"avfda/internal/core"
)

// Version is the current snapshot2 format version. Readers accept exactly
// this version; see the package comment for the compatibility policy.
const Version uint16 = 2

// magic identifies a v2 snapshot file; eight bytes keep the header scalars
// that follow naturally aligned, and it differs from the retired v1 magic
// so a leftover v1 file is rejected with a clean *FormatError.
const magic = "AVSNAP2\x00"

// headerLen is the byte length of the fixed header preceding the payload.
const headerLen = len(magic) + 2 + 8 + 4

// castagnoli is the CRC-32C table used for the payload checksum; the
// polynomial is hardware-accelerated on every deployment target, so the
// open-time integrity pass runs at memory bandwidth.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section ids, in the order sections appear in the payload. The directory
// must list exactly these ids, ascending, and the sections must tile the
// payload contiguously — self-description for forward evolution, strict
// validation for today.
const (
	secMeta uint32 = 1 + iota
	secStrOffsets
	secStrBlob
	secEvMfr
	secEvVehicle
	secEvYear
	secEvTimeSec
	secEvTimeNsec
	secEvCause
	secEvModality
	secEvRoad
	secEvWeather
	secEvReaction
	secEvTag
	secEvCategory
	secMlMfr
	secMlVehicle
	secMlYear
	secMlMonthSec
	secMlMonthNsec
	secMlMiles
	secFlMfr
	secFlYear
	secFlCars
	secAcMfr
	secAcVehicle
	secAcYear
	secAcTimeSec
	secAcTimeNsec
	secAcLocation
	secAcNarrative
	secAcAVSpeed
	secAcOtherSpeed
	secAcFlags
	secIdxMfr
	secIdxTag
	secIdxCategory
	numSections = iota
)

// accident flag bits packed into the secAcFlags byte column.
const (
	flagAutonomous = 1 << 0
	flagRedacted   = 1 << 1
)

// FormatError reports a structurally invalid snapshot: wrong magic,
// truncation, a malformed section directory, or column data that violates
// the layout invariants.
type FormatError struct {
	// Reason describes the structural violation.
	Reason string
}

// Error implements the error interface.
func (e *FormatError) Error() string { return "snapshot2: " + e.Reason }

// VersionError reports a snapshot written by an incompatible format version.
type VersionError struct {
	Got, Want uint16
}

// Error implements the error interface.
func (e *VersionError) Error() string {
	return fmt.Sprintf("snapshot2: format version %d, want %d", e.Got, e.Want)
}

// ChecksumError reports payload corruption: the stored CRC-32C does not
// match the payload bytes.
type ChecksumError struct {
	// Got and Want are the recomputed and stored CRC-32C values.
	Got, Want uint32
}

// Error implements the error interface.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("snapshot2: payload checksum %08x, header says %08x", e.Got, e.Want)
}

// Path returns the canonical v2 snapshot file name for a study seed inside
// dir. The .avsnap2 extension keeps it distinct from a leftover v1 file
// (study-<seed>.avsnap), which is never opened.
func Path(dir string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("study-%d.avsnap2", seed))
}

// Encode serializes the database into the v2 columnar wire format.
// Encoding is deterministic: the string table interns values in a fixed
// traversal order and posting-list keys are sorted, so identical databases
// encode to identical bytes.
func Encode(db *core.DB) ([]byte, error) {
	if db == nil {
		return nil, errors.New("snapshot2: nil database")
	}
	var e encoder
	e.strIndex = make(map[string]uint32)
	e.intern("") // id 0 is always the empty string

	nEv, nMl, nFl, nAc := len(db.Events), len(db.Mileage), len(db.Fleets), len(db.Accidents)

	// Event columns. String-valued columns store string-table ids; enum
	// columns store the raw integer (the View renders display strings on
	// access), timestamps store Unix seconds + in-second nanoseconds.
	evMfr := make([]uint32, nEv)
	evVeh := make([]uint32, nEv)
	evYear := make([]int64, nEv)
	evSec := make([]int64, nEv)
	evNsec := make([]int64, nEv)
	evCause := make([]uint32, nEv)
	evModality := make([]int64, nEv)
	evRoad := make([]int64, nEv)
	evWeather := make([]int64, nEv)
	evReaction := make([]float64, nEv)
	evTag := make([]int64, nEv)
	evCategory := make([]int64, nEv)
	for i, ev := range db.Events {
		evMfr[i] = e.intern(string(ev.Manufacturer))
		evVeh[i] = e.intern(string(ev.Vehicle))
		evYear[i] = int64(ev.ReportYear)
		evSec[i] = ev.Time.Unix()
		evNsec[i] = int64(ev.Time.Nanosecond())
		evCause[i] = e.intern(ev.Cause)
		evModality[i] = int64(ev.Modality)
		evRoad[i] = int64(ev.Road)
		evWeather[i] = int64(ev.Weather)
		evReaction[i] = ev.ReactionSeconds
		evTag[i] = int64(ev.Tag)
		evCategory[i] = int64(ev.Category)
	}

	mlMfr := make([]uint32, nMl)
	mlVeh := make([]uint32, nMl)
	mlYear := make([]int64, nMl)
	mlSec := make([]int64, nMl)
	mlNsec := make([]int64, nMl)
	mlMiles := make([]float64, nMl)
	for i, m := range db.Mileage {
		mlMfr[i] = e.intern(string(m.Manufacturer))
		mlVeh[i] = e.intern(string(m.Vehicle))
		mlYear[i] = int64(m.ReportYear)
		mlSec[i] = m.Month.Unix()
		mlNsec[i] = int64(m.Month.Nanosecond())
		mlMiles[i] = m.Miles
	}

	flMfr := make([]uint32, nFl)
	flYear := make([]int64, nFl)
	flCars := make([]int64, nFl)
	for i, f := range db.Fleets {
		flMfr[i] = e.intern(string(f.Manufacturer))
		flYear[i] = int64(f.ReportYear)
		flCars[i] = int64(f.Cars)
	}

	acMfr := make([]uint32, nAc)
	acVeh := make([]uint32, nAc)
	acYear := make([]int64, nAc)
	acSec := make([]int64, nAc)
	acNsec := make([]int64, nAc)
	acLoc := make([]uint32, nAc)
	acNarr := make([]uint32, nAc)
	acAV := make([]float64, nAc)
	acOther := make([]float64, nAc)
	acFlags := make([]byte, nAc)
	for i, a := range db.Accidents {
		acMfr[i] = e.intern(string(a.Manufacturer))
		acVeh[i] = e.intern(string(a.Vehicle))
		acYear[i] = int64(a.ReportYear)
		acSec[i] = a.Time.Unix()
		acNsec[i] = int64(a.Time.Nanosecond())
		acLoc[i] = e.intern(a.Location)
		acNarr[i] = e.intern(a.Narrative)
		acAV[i] = a.AVSpeedMPH
		acOther[i] = a.OtherSpeedMPH
		var flags byte
		if a.InAutonomousMode {
			flags |= flagAutonomous
		}
		if a.Redacted {
			flags |= flagRedacted
		}
		acFlags[i] = flags
	}

	// Inverted indexes over the event columns, keyed exactly like
	// query.Engine's in-heap indexes: lower-cased display value → ascending
	// row ids. Index keys are interned after the row columns so row data
	// dominates string-table locality.
	idxMfr := e.encodePostings(db, func(ev *core.Event) string { return string(ev.Manufacturer) })
	idxTag := e.encodePostings(db, func(ev *core.Event) string { return ev.Tag.String() })
	idxCat := e.encodePostings(db, func(ev *core.Event) string { return ev.Category.String() })

	// Meta + string table sections.
	meta := make([]byte, 0, 5*8)
	for _, n := range []int{nEv, nMl, nFl, nAc, len(e.strs)} {
		meta = binary.LittleEndian.AppendUint64(meta, uint64(n))
	}
	strOff := make([]byte, 0, 4*(len(e.strs)+1))
	var blobLen uint32
	strOff = binary.LittleEndian.AppendUint32(strOff, 0)
	var blob []byte
	for _, s := range e.strs {
		blob = append(blob, s...)
		blobLen += uint32(len(s))
		strOff = binary.LittleEndian.AppendUint32(strOff, blobLen)
	}

	sections := [][]byte{
		meta, strOff, blob,
		u32Bytes(evMfr), u32Bytes(evVeh), i64Bytes(evYear), i64Bytes(evSec),
		i64Bytes(evNsec), u32Bytes(evCause), i64Bytes(evModality), i64Bytes(evRoad),
		i64Bytes(evWeather), f64Bytes(evReaction), i64Bytes(evTag), i64Bytes(evCategory),
		u32Bytes(mlMfr), u32Bytes(mlVeh), i64Bytes(mlYear), i64Bytes(mlSec),
		i64Bytes(mlNsec), f64Bytes(mlMiles),
		u32Bytes(flMfr), i64Bytes(flYear), i64Bytes(flCars),
		u32Bytes(acMfr), u32Bytes(acVeh), i64Bytes(acYear), i64Bytes(acSec),
		i64Bytes(acNsec), u32Bytes(acLoc), u32Bytes(acNarr), f64Bytes(acAV),
		f64Bytes(acOther), acFlags,
		idxMfr, idxTag, idxCat,
	}

	// Section directory: ids are 1-based and consecutive, offsets relative
	// to the payload start, sections tiling the rest of the payload.
	dirLen := 4 + numSections*(4+8+8)
	payloadLen := dirLen
	for _, s := range sections {
		payloadLen += len(s)
	}
	payload := make([]byte, 0, payloadLen)
	payload = binary.LittleEndian.AppendUint32(payload, numSections)
	off := uint64(dirLen)
	for i, s := range sections {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(i+1))
		payload = binary.LittleEndian.AppendUint64(payload, off)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(len(s)))
		off += uint64(len(s))
	}
	for _, s := range sections {
		payload = append(payload, s...)
	}

	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	out = append(out, payload...)
	return out, nil
}

// encoder accumulates the deduplicated string table during Encode.
type encoder struct {
	strIndex map[string]uint32
	strs     []string
}

// intern returns the string-table id for s, assigning the next id on first
// use. Assignment order follows the encoder's fixed traversal, so the
// table is deterministic.
func (e *encoder) intern(s string) uint32 {
	if id, ok := e.strIndex[s]; ok {
		return id
	}
	id := uint32(len(e.strs))
	e.strIndex[s] = id
	e.strs = append(e.strs, s)
	return id
}

// encodePostings builds one inverted-index section: lower-cased value →
// delta-encoded ascending row ids, keys sorted so encoding is
// deterministic.
func (e *encoder) encodePostings(db *core.DB, value func(*core.Event) string) []byte {
	lists := make(map[string][]int)
	for i := range db.Events {
		k := strings.ToLower(value(&db.Events[i]))
		lists[k] = append(lists[k], i)
	}
	keys := make([]string, 0, len(lists))
	for k := range lists {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	blobs := make([][]byte, len(keys))
	var blobLen int
	for i, k := range keys {
		ids := lists[k]
		var b []byte
		prev := 0
		for j, id := range ids {
			delta := id - prev
			if j == 0 {
				delta = id
			}
			b = binary.AppendUvarint(b, uint64(delta))
			prev = id
		}
		blobs[i] = b
		blobLen += len(b)
	}

	out := make([]byte, 0, 4+len(keys)*12+blobLen)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(keys)))
	for i, k := range keys {
		out = binary.LittleEndian.AppendUint32(out, e.intern(k))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(lists[k])))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(blobs[i])))
	}
	for _, b := range blobs {
		out = append(out, b...)
	}
	return out
}

// u32Bytes renders a uint32 column as little-endian bytes.
func u32Bytes(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// i64Bytes renders an int64 column as little-endian bytes.
func i64Bytes(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

// f64Bytes renders a float64 column by IEEE-754 bit patterns.
func f64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// Write atomically persists the database to path in v2 format: staged in a
// temporary file in the same directory and renamed into place, so readers
// never observe a half-written file. Atomic replacement also means a
// reader that already mapped the previous file keeps its (complete,
// consistent) bytes — the unlinked inode stays alive until unmapped. It
// returns the payload's CRC-32C, the same value View.Checksum reports for
// the written file, so write-through callers can derive ETags without
// re-reading what they just wrote.
func Write(path string, db *core.DB) (uint32, error) {
	data, err := Encode(db)
	if err != nil {
		return 0, err
	}
	crc := binary.LittleEndian.Uint32(data[len(magic)+10:])
	if err := writeFileAtomic(path, data); err != nil {
		return 0, err
	}
	return crc, nil
}

// WriteSeed persists the database under dir with the canonical per-seed v2
// file name, returning the payload checksum like Write.
func WriteSeed(dir string, seed int64, db *core.DB) (uint32, error) {
	return Write(Path(dir, seed), db)
}

// WriteSeedBytes atomically installs already-encoded snapshot bytes as the
// canonical v2 file for seed — the landing step of a peer snapshot fetch.
// The caller is responsible for having validated data (NewView) first;
// this function only guarantees the atomic, never-half-written placement.
func WriteSeedBytes(dir string, seed int64, data []byte) error {
	return writeFileAtomic(Path(dir, seed), data)
}

// writeFileAtomic stages data in a temporary file beside path and renames
// it into place.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot2: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot2: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot2: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot2: %w", err)
	}
	// CreateTemp opens 0600; a snapshot is a shippable artifact, so widen
	// to the usual umask-style file mode before publishing it.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot2: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot2: %w", err)
	}
	return nil
}

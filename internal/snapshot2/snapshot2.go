// Package snapshot2 persists a built study — the consolidated failure
// database (core.DB) — in a memory-mappable columnar layout (system #23 in
// DESIGN.md §2). It is the only on-disk study format.
//
// It is also the only in-memory form of a study. A format that
// deserializes the whole database into heap objects before the query
// engine can touch a single row costs O(study) allocation per cold load.
// The v2 layout is arranged so the query engine reads the bytes in place —
// a View is the column read surface query.Engine needs, over a mapped file
// or over the heap bytes a fresh build was encoded to, with lazy string
// materialization and no per-row decoding. Opening a snapshot costs a
// checksum pass and a structural validation of the section directory;
// resident cost is pages of the mapped file, not heap, which is what makes
// thousands of concurrently-hot studies per node feasible.
//
// File layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "AVSNAP2\x00"
//	8       2     format version (currently 4)
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
//	answer slots  one {status uint16, content type uint16, length uint32}
//	              entry per stored answer, in report.AnswerKeys order
//	answer bodies the answers' identity bodies, back to back in slot order
//
// The answers are the study's parameterless HTTP responses — the
// metrics/reliability JSON and the seven served paper tables — rendered
// once by report.Answers when the study is encoded, so a server copies
// them instead of recomputing them each time the study comes back into
// memory. A status is 200 or 500 (a render that failed is stored as its
// error envelope); a content type is 0 for report.ContentJSON or 1 for
// report.ContentText. Bodies are stored identity-encoded: a stored gzip
// stream would tie the checksum, and so every ETag, to one compress/flate
// build's output.
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
	"slices"

	"avfda/internal/core"
	"avfda/internal/report"
)

// Version is the current snapshot2 format version. Readers accept exactly
// this version; see the package comment for the compatibility policy.
const Version uint16 = 4

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
	secAnswerSlots
	secAnswerBodies
	numSections = iota
)

// Slot names one stored answer: the reliability metrics, then the served
// paper tables, in report.AnswerKeys order.
type Slot uint8

// SlotReliability is the metrics/reliability answer; NumSlots is the
// number of stored answers.
const (
	SlotReliability Slot = 0
	NumSlots             = len(report.AnswerKeys)
)

// TableSlot returns the slot of a served paper table by its lower-case id
// ("i", "iii", ..., "viii"); ok is false for any other id.
func TableSlot(id string) (s Slot, ok bool) {
	for i, key := range report.AnswerKeys {
		if i != int(SlotReliability) && key == id {
			return Slot(i), true
		}
	}
	return 0, false
}

// answerSlotLen is the byte length of one answer-slot entry.
const answerSlotLen = 2 + 2 + 4

// contentTypes maps a stored content-type code to its value.
var contentTypes = [...]string{report.ContentJSON, report.ContentText}

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

// columns lists every fixed-width column section in id order with the
// table whose rows it holds (an index into the meta counts: events,
// mileage, fleets, accidents) and its width in bytes per row.
var columns = [...]struct {
	id           uint32
	table, width int
}{
	{secEvMfr, 0, 4}, {secEvVehicle, 0, 4}, {secEvYear, 0, 8}, {secEvTimeSec, 0, 8},
	{secEvTimeNsec, 0, 8}, {secEvCause, 0, 4}, {secEvModality, 0, 8}, {secEvRoad, 0, 8},
	{secEvWeather, 0, 8}, {secEvReaction, 0, 8}, {secEvTag, 0, 8}, {secEvCategory, 0, 8},
	{secMlMfr, 1, 4}, {secMlVehicle, 1, 4}, {secMlYear, 1, 8},
	{secMlMonthSec, 1, 8}, {secMlMonthNsec, 1, 8}, {secMlMiles, 1, 8},
	{secFlMfr, 2, 4}, {secFlYear, 2, 8}, {secFlCars, 2, 8},
	{secAcMfr, 3, 4}, {secAcVehicle, 3, 4}, {secAcYear, 3, 8}, {secAcTimeSec, 3, 8},
	{secAcTimeNsec, 3, 8}, {secAcLocation, 3, 4}, {secAcNarrative, 3, 4},
	{secAcAVSpeed, 3, 8}, {secAcOtherSpeed, 3, 8}, {secAcFlags, 3, 1},
}

// Encode serializes the database into the v2 columnar wire format.
// Encoding is deterministic: the string table interns values in a fixed
// traversal order, so identical databases encode to identical bytes.
// Every section is sized from the row counts and the string table, so the
// file image is allocated once and each column is written into place.
func Encode(db *core.DB) ([]byte, error) {
	if db == nil {
		return nil, errors.New("snapshot2: nil database")
	}
	counts := [...]int{len(db.Events), len(db.Mileage), len(db.Fleets), len(db.Accidents)}

	// Intern every string in the traversal order that assigns the ids:
	// event by event (manufacturer, vehicle, cause), then mileage, fleets
	// and accidents. Only the id columns the exposure tally reads are
	// kept; the others are looked up again when they are written.
	e := encoder{strIndex: make(map[string]uint32)}
	e.intern("") // id 0 is always the empty string
	evMfr, evVeh := make([]uint32, counts[0]), make([]uint32, counts[0])
	for i, ev := range db.Events {
		evMfr[i] = e.intern(string(ev.Manufacturer))
		evVeh[i] = e.intern(string(ev.Vehicle))
		e.intern(ev.Cause)
	}
	mlMfr, mlVeh := make([]uint32, counts[1]), make([]uint32, counts[1])
	for i, m := range db.Mileage {
		mlMfr[i] = e.intern(string(m.Manufacturer))
		mlVeh[i] = e.intern(string(m.Vehicle))
	}
	flMfr := make([]uint32, counts[2])
	for i, f := range db.Fleets {
		flMfr[i] = e.intern(string(f.Manufacturer))
	}
	acMfr := make([]uint32, counts[3])
	for i, a := range db.Accidents {
		acMfr[i] = e.intern(string(a.Manufacturer))
		e.intern(string(a.Vehicle))
		e.intern(a.Location)
		e.intern(a.Narrative)
	}

	// The answers share one exposure summary, summed by string id as
	// View.Exposure sums it: in row order, so bit-identical to
	// db.Exposure().
	x := core.NewExposureTally(func(id uint32) string { return e.strs[id] })
	for _, m := range flMfr {
		x.Fleet(m)
	}
	for i, m := range mlMfr {
		x.Mileage(m, mlVeh[i], db.Mileage[i].Miles)
	}
	for i, m := range evMfr {
		x.Event(m, evVeh[i])
	}
	for _, m := range acMfr {
		x.Accident(m)
	}
	answers := report.Answers(db, x.Exposure())
	bodyLen, err := checkAnswers(answers)
	if err != nil {
		return nil, err
	}

	// Lay the file out: the header, whose checksum is filled in last; the
	// section directory, ids 1-based and consecutive and offsets relative
	// to the payload start; then the sections, tiling the rest of the
	// payload. sec holds each section's window of out, by id.
	var lens [numSections + 1]int
	lens[secMeta] = 5 * 8
	lens[secStrOffsets] = 4 * (len(e.strs) + 1)
	lens[secStrBlob] = e.blobLen
	for _, c := range columns {
		lens[c.id] = counts[c.table] * c.width
	}
	lens[secAnswerSlots] = NumSlots * answerSlotLen
	lens[secAnswerBodies] = bodyLen
	const dirLen = 4 + numSections*(4+8+8)
	payloadLen := dirLen
	for _, n := range lens {
		payloadLen += n
	}
	le := binary.LittleEndian
	out := make([]byte, headerLen+payloadLen)
	copy(out, magic)
	le.PutUint16(out[len(magic):], Version)
	le.PutUint64(out[len(magic)+2:], uint64(payloadLen))
	payload := out[headerLen:]
	le.PutUint32(payload, numSections)
	var sec [numSections + 1][]byte
	off := dirLen
	for id := uint32(1); id <= numSections; id++ {
		ent := payload[4+20*(id-1):]
		le.PutUint32(ent, id)
		le.PutUint64(ent[4:], uint64(off))
		le.PutUint64(ent[12:], uint64(lens[id]))
		sec[id] = payload[off : off+lens[id] : off+lens[id]]
		off += lens[id]
	}

	meta := sec[secMeta]
	for i, n := range counts {
		le.PutUint64(meta[8*i:], uint64(n))
	}
	le.PutUint64(meta[8*len(counts):], uint64(len(e.strs)))
	blob := sec[secStrBlob]
	end := 0
	for i, s := range e.strs {
		end += copy(blob[end:], s)
		putU32(sec[secStrOffsets], i+1, uint32(end))
	}

	// String-valued columns store string-table ids; enum columns store
	// the raw integer (the View renders display strings on access),
	// timestamps store Unix seconds + in-second nanoseconds.
	for i, ev := range db.Events {
		putU32(sec[secEvMfr], i, evMfr[i])
		putU32(sec[secEvVehicle], i, evVeh[i])
		putI64(sec[secEvYear], i, int64(ev.ReportYear))
		putI64(sec[secEvTimeSec], i, ev.Time.Unix())
		putI64(sec[secEvTimeNsec], i, int64(ev.Time.Nanosecond()))
		putU32(sec[secEvCause], i, e.strIndex[ev.Cause])
		putI64(sec[secEvModality], i, int64(ev.Modality))
		putI64(sec[secEvRoad], i, int64(ev.Road))
		putI64(sec[secEvWeather], i, int64(ev.Weather))
		putF64(sec[secEvReaction], i, ev.ReactionSeconds)
		putI64(sec[secEvTag], i, int64(ev.Tag))
		putI64(sec[secEvCategory], i, int64(ev.Category))
	}
	for i, m := range db.Mileage {
		putU32(sec[secMlMfr], i, mlMfr[i])
		putU32(sec[secMlVehicle], i, mlVeh[i])
		putI64(sec[secMlYear], i, int64(m.ReportYear))
		putI64(sec[secMlMonthSec], i, m.Month.Unix())
		putI64(sec[secMlMonthNsec], i, int64(m.Month.Nanosecond()))
		putF64(sec[secMlMiles], i, m.Miles)
	}
	for i, f := range db.Fleets {
		putU32(sec[secFlMfr], i, flMfr[i])
		putI64(sec[secFlYear], i, int64(f.ReportYear))
		putI64(sec[secFlCars], i, int64(f.Cars))
	}
	for i, a := range db.Accidents {
		putU32(sec[secAcMfr], i, acMfr[i])
		putU32(sec[secAcVehicle], i, e.strIndex[string(a.Vehicle)])
		putI64(sec[secAcYear], i, int64(a.ReportYear))
		putI64(sec[secAcTimeSec], i, a.Time.Unix())
		putI64(sec[secAcTimeNsec], i, int64(a.Time.Nanosecond()))
		putU32(sec[secAcLocation], i, e.strIndex[a.Location])
		putU32(sec[secAcNarrative], i, e.strIndex[a.Narrative])
		putF64(sec[secAcAVSpeed], i, a.AVSpeedMPH)
		putF64(sec[secAcOtherSpeed], i, a.OtherSpeedMPH)
		var flags byte
		if a.InAutonomousMode {
			flags |= flagAutonomous
		}
		if a.Redacted {
			flags |= flagRedacted
		}
		sec[secAcFlags][i] = flags
	}

	bodies := sec[secAnswerBodies]
	for i, a := range answers {
		ent := sec[secAnswerSlots][i*answerSlotLen:]
		le.PutUint16(ent, uint16(a.Status))
		le.PutUint16(ent[2:], uint16(slices.Index(contentTypes[:], a.ContentType)))
		le.PutUint32(ent[4:], uint32(len(a.Body)))
		bodies = bodies[copy(bodies, a.Body):]
	}
	le.PutUint32(out[headerLen-4:], crc32.Checksum(payload, castagnoli))
	return out, nil
}

// checkAnswers reports an error unless the answers fill the answer
// sections exactly, one per slot, and returns their total body length.
func checkAnswers(answers []report.Answer) (int, error) {
	if len(answers) != NumSlots {
		return 0, fmt.Errorf("snapshot2: %d answers, want %d", len(answers), NumSlots)
	}
	n := 0
	for _, a := range answers {
		if !slices.Contains(contentTypes[:], a.ContentType) || !validStatus(a.Status) || uint64(len(a.Body)) > math.MaxUint32 {
			return 0, fmt.Errorf("snapshot2: unstorable answer (status %d, content type %q, %d bytes)",
				a.Status, a.ContentType, len(a.Body))
		}
		n += len(a.Body)
	}
	return n, nil
}

// validStatus reports whether a stored answer may carry status.
func validStatus(status int) bool {
	return status == report.StatusOK || status == report.StatusError
}

// encoder accumulates the deduplicated string table during Encode.
type encoder struct {
	strIndex map[string]uint32
	strs     []string
	blobLen  int
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
	e.blobLen += len(s)
	return id
}

// putU32, putI64 and putF64 write row i of a fixed-width column section,
// floats by their IEEE-754 bit patterns.
func putU32(col []byte, i int, v uint32) { binary.LittleEndian.PutUint32(col[4*i:], v) }
func putI64(col []byte, i int, v int64)  { binary.LittleEndian.PutUint64(col[8*i:], uint64(v)) }
func putF64(col []byte, i int, v float64) {
	binary.LittleEndian.PutUint64(col[8*i:], math.Float64bits(v))
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

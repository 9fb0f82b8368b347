package snapshot2

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/report"
	"avfda/internal/schema"
)

// View is a validated window onto one v2 snapshot's bytes: a mapped file
// for a restarted or peer-fetched study, or the heap bytes a fresh build
// was encoded to. It is the per-row read surface query.Engine consumes:
// every accessor reads the column bytes in place, materializing strings
// lazily (each distinct string is copied out of the bytes at most once and
// cached), so an opened study costs its encoded bytes rather than
// deserialized heap.
//
// NewView validates the whole structure up front — checksum, section
// tiling, column sizes, string-table offsets, string ids, value ranges,
// answer slots — so accessors cannot fail on any row index in
// [0, NumRows()) or any slot below NumSlots: corruption surfaces as a
// typed error at open, never as a panic or wrong answer later.
//
// A View is safe for concurrent use. Close (or garbage collection, for
// views opened by Open) releases the mapping; the caller must not use
// column accessors after Close, but everything an exported method has
// returned remains valid — no result aliases the mapped bytes
// (TestViewResultsDoNotAliasSnapshot checks every exported method).
type View struct {
	data   []byte
	crc    uint32
	closer func() error
	closed atomic.Bool

	nEvents, nMileage, nFleets, nAccidents, nStrings int

	secs     [numSections][]byte
	strOff   []byte
	strBlob  []byte
	strCache []atomic.Pointer[string]
	answers  [NumSlots]storedAnswer

	dbOnce sync.Once
	db     *core.DB
}

// NewView validates data as a complete v2 snapshot and returns a View
// reading it in place. The caller keeps ownership of data and must not
// mutate it for the lifetime of the View. All structural invariants are
// checked here (see the package comment); any violation yields a
// *FormatError, *VersionError, or *ChecksumError.
func NewView(data []byte) (*View, error) {
	if len(data) < headerLen {
		return nil, &FormatError{Reason: fmt.Sprintf("truncated: %d bytes, header needs %d", len(data), headerLen)}
	}
	if string(data[:len(magic)]) != magic {
		return nil, &FormatError{Reason: "bad magic (not a v2 snapshot)"}
	}
	if got := binary.LittleEndian.Uint16(data[len(magic):]); got != Version {
		return nil, &VersionError{Got: got, Want: Version}
	}
	plen := binary.LittleEndian.Uint64(data[len(magic)+2:])
	if plen != uint64(len(data)-headerLen) {
		return nil, &FormatError{Reason: fmt.Sprintf("payload length %d, file carries %d payload bytes", plen, len(data)-headerLen)}
	}
	payload := data[headerLen:]
	want := binary.LittleEndian.Uint32(data[len(magic)+10:])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &ChecksumError{Got: got, Want: want}
	}

	v := &View{data: data, crc: want}
	if err := v.parseSections(payload); err != nil {
		return nil, err
	}
	if err := v.parseMeta(); err != nil {
		return nil, err
	}
	if err := v.validateColumns(); err != nil {
		return nil, err
	}
	if err := v.parseAnswers(); err != nil {
		return nil, err
	}
	return v, nil
}

// storedAnswer is one answer slot, validated at open: its body is a window
// onto the answer-body section.
type storedAnswer struct {
	status      int
	contentType string
	body        []byte
}

// parseAnswers checks the answer-slot section — one entry per slot, each
// status 200 or 500, each content-type code defined — and that the slots'
// bodies tile the answer-body section exactly.
func (v *View) parseAnswers() error {
	slots, bodies := v.sec(secAnswerSlots), v.sec(secAnswerBodies)
	if len(slots) != NumSlots*answerSlotLen {
		return &FormatError{Reason: fmt.Sprintf("answer slot section is %d bytes, want %d slots of %d", len(slots), NumSlots, answerSlotLen)}
	}
	var off uint64
	for i := range v.answers {
		ent := slots[i*answerSlotLen:]
		status := int(binary.LittleEndian.Uint16(ent))
		code := binary.LittleEndian.Uint16(ent[2:])
		length := uint64(binary.LittleEndian.Uint32(ent[4:]))
		if !validStatus(status) {
			return &FormatError{Reason: fmt.Sprintf("answer slot %d has status %d", i, status)}
		}
		if int(code) >= len(contentTypes) {
			return &FormatError{Reason: fmt.Sprintf("answer slot %d has content type %d", i, code)}
		}
		if length > uint64(len(bodies))-off {
			return &FormatError{Reason: fmt.Sprintf("answer slot %d overruns the answer bodies", i)}
		}
		v.answers[i] = storedAnswer{status: status, contentType: contentTypes[code], body: bodies[off : off+length]}
		off += length
	}
	if off != uint64(len(bodies)) {
		return &FormatError{Reason: "answer bodies beyond the last slot"}
	}
	return nil
}

// parseSections decodes the section directory and checks that the declared
// sections tile the payload exactly: known ids in ascending order, each
// section starting where the previous ended, no trailing bytes.
func (v *View) parseSections(payload []byte) error {
	const dirLen = 4 + numSections*20
	if len(payload) < dirLen {
		return &FormatError{Reason: "payload too short for section directory"}
	}
	if got := binary.LittleEndian.Uint32(payload); got != numSections {
		return &FormatError{Reason: fmt.Sprintf("section count %d, want %d", got, numSections)}
	}
	off := uint64(dirLen)
	for i := 0; i < numSections; i++ {
		ent := payload[4+i*20:]
		id := binary.LittleEndian.Uint32(ent)
		start := binary.LittleEndian.Uint64(ent[4:])
		length := binary.LittleEndian.Uint64(ent[12:])
		if id != uint32(i+1) {
			return &FormatError{Reason: fmt.Sprintf("section directory entry %d has id %d, want %d", i, id, i+1)}
		}
		if start != off {
			return &FormatError{Reason: fmt.Sprintf("section %d starts at %d, want %d (sections must tile)", id, start, off)}
		}
		if length > uint64(len(payload))-off {
			return &FormatError{Reason: fmt.Sprintf("section %d overruns the payload", id)}
		}
		v.secs[i] = payload[off : off+length]
		off += length
	}
	if off != uint64(len(payload)) {
		return &FormatError{Reason: "payload bytes beyond the last section"}
	}
	return nil
}

// sec returns the raw bytes of a section by id.
func (v *View) sec(id uint32) []byte { return v.secs[id-1] }

// parseMeta reads the record counts and sizes the string cache.
func (v *View) parseMeta() error {
	meta := v.sec(secMeta)
	if len(meta) != 5*8 {
		return &FormatError{Reason: fmt.Sprintf("meta section is %d bytes, want %d", len(meta), 5*8)}
	}
	counts := [5]int{}
	for i := range counts {
		n := binary.LittleEndian.Uint64(meta[8*i:])
		if n > math.MaxInt32 {
			return &FormatError{Reason: fmt.Sprintf("meta count %d out of range", n)}
		}
		counts[i] = int(n)
	}
	v.nEvents, v.nMileage, v.nFleets, v.nAccidents, v.nStrings = counts[0], counts[1], counts[2], counts[3], counts[4]
	v.strCache = make([]atomic.Pointer[string], v.nStrings)
	return nil
}

// validateColumns checks every fixed-width section's size against its row
// count and validates the value ranges accessors rely on: string-table
// offsets monotonic and bounded, string-id columns within the table,
// nanosecond columns within a second, accident flags within the defined
// bits. After this pass no accessor can read out of bounds.
func (v *View) validateColumns() error {
	v.strOff = v.sec(secStrOffsets)
	v.strBlob = v.sec(secStrBlob)

	sized := func(id uint32, rows, width int) error {
		if len(v.sec(id)) == rows*width {
			return nil
		}
		return &FormatError{Reason: fmt.Sprintf("section %d is %d bytes, want %d rows of %d", id, len(v.sec(id)), rows, width)}
	}
	if err := sized(secStrOffsets, v.nStrings+1, 4); err != nil {
		return err
	}
	counts := [...]int{v.nEvents, v.nMileage, v.nFleets, v.nAccidents}
	for _, c := range columns {
		if err := sized(c.id, counts[c.table], c.width); err != nil {
			return err
		}
	}

	prev := binary.LittleEndian.Uint32(v.strOff)
	if prev != 0 {
		return &FormatError{Reason: "string table does not start at offset 0"}
	}
	for i := 1; i <= v.nStrings; i++ {
		cur := binary.LittleEndian.Uint32(v.strOff[4*i:])
		if cur < prev {
			return &FormatError{Reason: "string table offsets not monotonic"}
		}
		prev = cur
	}
	if prev != uint32(len(v.strBlob)) {
		return &FormatError{Reason: fmt.Sprintf("string table covers %d bytes, blob has %d", prev, len(v.strBlob))}
	}

	for _, id := range []uint32{
		secEvMfr, secEvVehicle, secEvCause,
		secMlMfr, secMlVehicle,
		secFlMfr,
		secAcMfr, secAcVehicle, secAcLocation, secAcNarrative,
	} {
		b := v.sec(id)
		for off := 0; off < len(b); off += 4 {
			if sid := binary.LittleEndian.Uint32(b[off:]); sid >= uint32(v.nStrings) {
				return &FormatError{Reason: fmt.Sprintf("section %d references string %d of %d", id, sid, v.nStrings)}
			}
		}
	}

	for _, id := range []uint32{secEvTimeNsec, secMlMonthNsec, secAcTimeNsec} {
		b := v.sec(id)
		for off := 0; off < len(b); off += 8 {
			if ns := int64(binary.LittleEndian.Uint64(b[off:])); ns < 0 || ns >= int64(time.Second) {
				return &FormatError{Reason: fmt.Sprintf("section %d nanosecond value %d outside [0, 1s)", id, ns)}
			}
		}
	}

	for _, flags := range v.sec(secAcFlags) {
		if flags > flagAutonomous|flagRedacted {
			return &FormatError{Reason: fmt.Sprintf("accident flags byte %#x has undefined bits", flags)}
		}
	}
	return nil
}

// str materializes string id (copying it out of the backing bytes) and
// caches the copy. Concurrent first calls may both copy; both copies are
// equal and either may win the cache slot.
func (v *View) str(id uint32) string {
	if p := v.strCache[id].Load(); p != nil {
		return *p
	}
	start := binary.LittleEndian.Uint32(v.strOff[4*id:])
	end := binary.LittleEndian.Uint32(v.strOff[4*(id+1):])
	s := string(v.strBlob[start:end])
	v.strCache[id].Store(&s)
	return s
}

// Raw little-endian column readers. Row bounds are the caller's contract
// (indexes in [0, rows)); section sizes were validated against the row
// counts at open, so in-range reads cannot overrun the mapping.

func (v *View) u32(id uint32, i int) uint32 {
	return binary.LittleEndian.Uint32(v.sec(id)[4*i:])
}

func (v *View) i64(id uint32, i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.sec(id)[8*i:]))
}

func (v *View) f64(id uint32, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(v.sec(id)[8*i:]))
}

func (v *View) timeAt(secSec, secNsec uint32, i int) time.Time {
	return time.Unix(v.i64(secSec, i), v.i64(secNsec, i)).UTC()
}

// NumRows returns the number of disengagement events.
func (v *View) NumRows() int { return v.nEvents }

// NumStrings returns the number of entries in the string table.
func (v *View) NumStrings() int { return v.nStrings }

// TimeUnix returns event i's timestamp in whole Unix seconds. The
// nanoseconds Time adds are validated to [0, 1s), so Time(i) lies in
// [TimeUnix(i), TimeUnix(i)+1).
func (v *View) TimeUnix(i int) int64 { return v.i64(secEvTimeSec, i) }

// Column names an event column that stores codes: the query engine
// filters on a column's codes, and its display accessor renders them.
type Column uint8

// The code columns. The manufacturer stores string ids, below
// NumStrings; the others store the raw value of their enum type.
const (
	ColManufacturer Column = iota
	ColTag                 // ontology.Tag
	ColCategory            // ontology.Category
	ColRoad                // schema.RoadType
	ColWeather             // schema.Weather
	ColModality            // schema.Modality
)

// codeSecs maps each Column to its section.
var codeSecs = [...]uint32{secEvMfr, secEvTag, secEvCategory, secEvRoad, secEvWeather, secEvModality}

// Code returns event i's stored code in column c.
func (v *View) Code(c Column, i int) int64 {
	if c == ColManufacturer {
		return int64(v.u32(secEvMfr, i))
	}
	return v.i64(codeSecs[c], i)
}

// Render returns the display string of code k in column c. A
// manufacturer code must be a string id below NumStrings; an enum code
// outside its type's defined values renders as its String method does,
// e.g. "Tag(0)".
func (v *View) Render(c Column, k int64) string {
	switch c {
	case ColManufacturer:
		return v.str(uint32(k))
	case ColTag:
		return ontology.Tag(k).String()
	case ColCategory:
		return ontology.Category(k).String()
	case ColRoad:
		return schema.RoadType(k).String()
	case ColWeather:
		return schema.Weather(k).String()
	default:
		return schema.Modality(k).String()
	}
}

// The display accessors below produce exactly the string forms of the
// database's own values (display names for enums, "YYYY-YYYY" report
// years), so the engine's answers and CSV exports match the database.

// Manufacturer returns event i's manufacturer name.
func (v *View) Manufacturer(i int) string { return v.str(v.u32(secEvMfr, i)) }

// Vehicle returns event i's vehicle id ("" when fleet-level).
func (v *View) Vehicle(i int) string { return v.str(v.u32(secEvVehicle, i)) }

// ReportYear returns event i's report-year display form (e.g. "2015-2016").
func (v *View) ReportYear(i int) string {
	return schema.ReportYear(v.i64(secEvYear, i)).String()
}

// Time returns event i's timestamp (UTC, as snapshots store wall time).
func (v *View) Time(i int) time.Time { return v.timeAt(secEvTimeSec, secEvTimeNsec, i) }

// Cause returns event i's raw cause text.
func (v *View) Cause(i int) string { return v.str(v.u32(secEvCause, i)) }

// VehicleID returns the string id of event i's vehicle.
func (v *View) VehicleID(i int) uint32 { return v.u32(secEvVehicle, i) }

// CauseID returns the string id of event i's cause text.
func (v *View) CauseID(i int) uint32 { return v.u32(secEvCause, i) }

// AppendString appends the bytes of string id, which must be below
// NumStrings, to dst and returns the extended slice. The bytes are copied,
// so the result aliases the snapshot only where dst already did.
func (v *View) AppendString(dst []byte, id uint32) []byte {
	start := binary.LittleEndian.Uint32(v.strOff[4*id:])
	end := binary.LittleEndian.Uint32(v.strOff[4*(id+1):])
	return append(dst, v.strBlob[start:end]...)
}

// Tag returns event i's fault-tag display name.
func (v *View) Tag(i int) string { return ontology.Tag(v.Code(ColTag, i)).String() }

// Category returns event i's fault-category display name.
func (v *View) Category(i int) string { return ontology.Category(v.Code(ColCategory, i)).String() }

// Modality returns event i's modality display name.
func (v *View) Modality(i int) string { return schema.Modality(v.Code(ColModality, i)).String() }

// Road returns event i's road-type display name.
func (v *View) Road(i int) string { return schema.RoadType(v.Code(ColRoad, i)).String() }

// Weather returns event i's weather display name.
func (v *View) Weather(i int) string { return schema.Weather(v.Code(ColWeather, i)).String() }

// ReactionSeconds returns event i's driver reaction time (negative when
// not reported).
func (v *View) ReactionSeconds(i int) float64 { return v.f64(secEvReaction, i) }

// Exposure summarizes the study (Tables I and IV-VIII and the
// reliability metrics) straight from the fleet, mileage, event and
// accident columns, keyed by string ids: no table is decoded and only the
// manufacturer and vehicle names are read. Each table is fed in row order,
// so every sum is bit-identical to the materialized database's.
func (v *View) Exposure() *core.Exposure { return v.exposure(v.str) }

// exposure feeds every table's rows to a tally whose string ids name
// resolves.
func (v *View) exposure(name func(uint32) string) *core.Exposure {
	t := core.NewExposureTally(name)
	year := func(id uint32, i int) schema.ReportYear { return schema.ReportYear(v.i64(id, i)) }
	for i := 0; i < v.nFleets; i++ {
		t.Fleet(v.u32(secFlMfr, i), year(secFlYear, i), int(v.i64(secFlCars, i)))
	}
	for i := 0; i < v.nMileage; i++ {
		t.Mileage(v.u32(secMlMfr, i), v.u32(secMlVehicle, i), year(secMlYear, i), v.f64(secMlMiles, i))
	}
	for i := 0; i < v.nEvents; i++ {
		t.Event(v.u32(secEvMfr, i), v.u32(secEvVehicle, i), year(secEvYear, i),
			ontology.Category(v.i64(secEvCategory, i)), ontology.Tag(v.i64(secEvTag, i)), schema.Modality(v.i64(secEvModality, i)))
	}
	for i := 0; i < v.nAccidents; i++ {
		t.Accident(v.u32(secAcMfr, i), year(secAcYear, i))
	}
	return t.Exposure()
}

// Answer returns the HTTP status and content type of the answer stored in
// slot s, which must be below NumSlots.
func (v *View) Answer(s Slot) (status int, contentType string) {
	a := &v.answers[s]
	return a.status, a.contentType
}

// AppendAnswer appends the identity body of the answer stored in slot s,
// which must be below NumSlots, to dst and returns the extended slice. The
// bytes are copied, so the result aliases the snapshot only where dst
// already did.
func (v *View) AppendAnswer(dst []byte, s Slot) []byte {
	return append(dst, v.answers[s].body...)
}

// CheckAnswers re-renders the answers from the View's columns and returns
// an *AnswerError naming the first slot whose stored status, content type
// or body differs. NewView checks only that the slots are well formed, so
// a file from a source that is not trusted to have encoded it (a peer) is
// checked here before it is installed.
func (v *View) CheckAnswers() error {
	for i, a := range report.Answers(v.Exposure()) {
		s := &v.answers[i]
		if a.Status != s.status || a.ContentType != s.contentType || !bytes.Equal(a.Body, s.body) {
			return &AnswerError{Slot: Slot(i)}
		}
	}
	return nil
}

// Accidents decodes the accident table alone, heap-allocated and
// independent of the mapping (nil when the study has none). The error is
// always nil for a validated View.
func (v *View) Accidents() ([]schema.Accident, error) {
	if v.nAccidents == 0 {
		return nil, nil
	}
	out := make([]schema.Accident, v.nAccidents)
	for i := range out {
		flags := v.sec(secAcFlags)[i]
		out[i] = schema.Accident{
			Manufacturer:     schema.Manufacturer(v.str(v.u32(secAcMfr, i))),
			Vehicle:          schema.VehicleID(v.str(v.u32(secAcVehicle, i))),
			ReportYear:       schema.ReportYear(v.i64(secAcYear, i)),
			Time:             v.timeAt(secAcTimeSec, secAcTimeNsec, i),
			Location:         v.str(v.u32(secAcLocation, i)),
			Narrative:        v.str(v.u32(secAcNarrative, i)),
			AVSpeedMPH:       v.f64(secAcAVSpeed, i),
			OtherSpeedMPH:    v.f64(secAcOtherSpeed, i),
			InAutonomousMode: flags&flagAutonomous != 0,
			Redacted:         flags&flagRedacted != 0,
		}
	}
	return out, nil
}

// Database materializes the full failure database from the columns —
// heap-allocated, independent of the mapping — built once and cached. Only
// the benchmark's replay and tests call it; listings, group counts,
// accident pages, CSV exports and the stored answers never pay for it. The
// error is always nil for a validated View.
func (v *View) Database() (*core.DB, error) {
	v.dbOnce.Do(func() { v.db = v.materialize() })
	return v.db, nil
}

// materialize decodes every table. Empty tables stay nil slices, matching
// what pipeline construction produces.
func (v *View) materialize() *core.DB {
	db := &core.DB{}
	if v.nEvents > 0 {
		db.Events = make([]core.Event, v.nEvents)
		for i := range db.Events {
			db.Events[i] = core.Event{
				Disengagement: schema.Disengagement{
					Manufacturer:    schema.Manufacturer(v.Manufacturer(i)),
					Vehicle:         schema.VehicleID(v.Vehicle(i)),
					ReportYear:      schema.ReportYear(v.i64(secEvYear, i)),
					Time:            v.Time(i),
					Cause:           v.Cause(i),
					Modality:        schema.Modality(v.i64(secEvModality, i)),
					Road:            schema.RoadType(v.i64(secEvRoad, i)),
					Weather:         schema.Weather(v.i64(secEvWeather, i)),
					ReactionSeconds: v.ReactionSeconds(i),
				},
				Tag:      ontology.Tag(v.i64(secEvTag, i)),
				Category: ontology.Category(v.i64(secEvCategory, i)),
			}
		}
	}
	if v.nMileage > 0 {
		db.Mileage = make([]schema.MonthlyMileage, v.nMileage)
		for i := range db.Mileage {
			db.Mileage[i] = schema.MonthlyMileage{
				Manufacturer: schema.Manufacturer(v.str(v.u32(secMlMfr, i))),
				Vehicle:      schema.VehicleID(v.str(v.u32(secMlVehicle, i))),
				ReportYear:   schema.ReportYear(v.i64(secMlYear, i)),
				Month:        v.timeAt(secMlMonthSec, secMlMonthNsec, i),
				Miles:        v.f64(secMlMiles, i),
			}
		}
	}
	if v.nFleets > 0 {
		db.Fleets = make([]schema.Fleet, v.nFleets)
		for i := range db.Fleets {
			db.Fleets[i] = schema.Fleet{
				Manufacturer: schema.Manufacturer(v.str(v.u32(secFlMfr, i))),
				ReportYear:   schema.ReportYear(v.i64(secFlYear, i)),
				Cars:         int(v.i64(secFlCars, i)),
			}
		}
	}
	db.Accidents, _ = v.Accidents() // never fails on a validated View
	return db
}

// Size returns the snapshot's total byte length (header + payload).
func (v *View) Size() int { return len(v.data) }

// Checksum returns the snapshot's CRC-32C payload checksum, verified at
// open. Encoding is deterministic, so the checksum identifies the study's
// content: every node serving the same seed reports the same value, which
// is what lets the serving layer derive HTTP ETags from it.
func (v *View) Checksum() uint32 { return v.crc }

// WriteSeed atomically installs the view's bytes as the canonical v2 file
// for seed under dir and returns their payload checksum, so a study already
// encoded for serving is persisted without encoding it again. It hands back
// no bytes, so nothing it returns aliases the snapshot.
func (v *View) WriteSeed(dir string, seed int64) (uint32, error) {
	if err := writeFileAtomic(Path(dir, seed), v.data); err != nil {
		return 0, err
	}
	return v.crc, nil
}

// Close releases the backing mapping for views opened by Open; it is
// idempotent and a no-op for views over caller-owned bytes (NewView).
// After Close, column accessors must not be used; previously materialized
// strings and Database() results remain valid.
func (v *View) Close() error {
	if v.closer == nil || !v.closed.CompareAndSwap(false, true) {
		return nil
	}
	return v.closer()
}

package snapshot2

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/schema"
)

// View is a validated window onto one v2 snapshot's bytes — typically a
// memory-mapped file. It implements the per-row read surface the query
// engine consumes (interface query.Source): every accessor reads the
// column bytes in place, materializing strings lazily (each distinct
// string is copied out of the mapping at most once and cached), so an
// opened study costs file pages rather than deserialized heap.
//
// NewView validates the whole structure up front — checksum, section
// tiling, string-table offsets, string ids, posting streams — so accessors
// cannot fail on any row index in [0, NumRows()): corruption surfaces as a
// typed error at open, never as a panic or wrong answer later.
//
// A View is safe for concurrent use. Close (or garbage collection, for
// views opened by Open) releases the mapping; the caller must not use
// column accessors after Close, but strings already materialized and any
// Database() result remain valid — they never alias the mapped bytes.
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

	idxMfr, idxTag, idxCategory map[string]*postingList

	dbOnce sync.Once
	db     *core.DB
}

// postingList is one inverted-index entry: the delta-encoded row-id stream
// for a single value, decoded lazily on first lookup. The stream was fully
// validated at open, so decoding cannot fail.
type postingList struct {
	once  sync.Once
	count int
	blob  []byte
	ids   []int
}

// rows decodes (once) and returns the ascending row ids.
func (p *postingList) rows() []int {
	p.once.Do(func() {
		ids := make([]int, p.count)
		rest := p.blob
		prev := 0
		for i := range ids {
			delta, n := binary.Uvarint(rest)
			rest = rest[n:]
			prev += int(delta)
			ids[i] = prev
		}
		p.ids = ids
	})
	return p.ids
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
	var err error
	if v.idxMfr, err = v.parsePostings(secIdxMfr); err != nil {
		return nil, err
	}
	if v.idxTag, err = v.parsePostings(secIdxTag); err != nil {
		return nil, err
	}
	if v.idxCategory, err = v.parsePostings(secIdxCategory); err != nil {
		return nil, err
	}
	return v, nil
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

	sized := []struct {
		id    uint32
		rows  int
		width int
	}{
		{secStrOffsets, v.nStrings + 1, 4},
		{secEvMfr, v.nEvents, 4}, {secEvVehicle, v.nEvents, 4}, {secEvYear, v.nEvents, 8},
		{secEvTimeSec, v.nEvents, 8}, {secEvTimeNsec, v.nEvents, 8}, {secEvCause, v.nEvents, 4},
		{secEvModality, v.nEvents, 8}, {secEvRoad, v.nEvents, 8}, {secEvWeather, v.nEvents, 8},
		{secEvReaction, v.nEvents, 8}, {secEvTag, v.nEvents, 8}, {secEvCategory, v.nEvents, 8},
		{secMlMfr, v.nMileage, 4}, {secMlVehicle, v.nMileage, 4}, {secMlYear, v.nMileage, 8},
		{secMlMonthSec, v.nMileage, 8}, {secMlMonthNsec, v.nMileage, 8}, {secMlMiles, v.nMileage, 8},
		{secFlMfr, v.nFleets, 4}, {secFlYear, v.nFleets, 8}, {secFlCars, v.nFleets, 8},
		{secAcMfr, v.nAccidents, 4}, {secAcVehicle, v.nAccidents, 4}, {secAcYear, v.nAccidents, 8},
		{secAcTimeSec, v.nAccidents, 8}, {secAcTimeNsec, v.nAccidents, 8}, {secAcLocation, v.nAccidents, 4},
		{secAcNarrative, v.nAccidents, 4}, {secAcAVSpeed, v.nAccidents, 8}, {secAcOtherSpeed, v.nAccidents, 8},
		{secAcFlags, v.nAccidents, 1},
	}
	for _, s := range sized {
		if len(v.sec(s.id)) != s.rows*s.width {
			return &FormatError{Reason: fmt.Sprintf("section %d is %d bytes, want %d rows of %d", s.id, len(v.sec(s.id)), s.rows, s.width)}
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

// parsePostings validates one inverted-index section and returns its
// key → posting-list map. Keys must be in-table strings, strictly
// ascending; every delta stream must decode to exactly its declared count
// of strictly ascending in-range row ids; and the lists must partition the
// event rows (every row appears in exactly one list).
func (v *View) parsePostings(id uint32) (map[string]*postingList, error) {
	b := v.sec(id)
	if len(b) < 4 {
		return nil, &FormatError{Reason: fmt.Sprintf("posting section %d truncated", id)}
	}
	nKeys64 := binary.LittleEndian.Uint32(b)
	if uint64(nKeys64) > uint64(v.nEvents) {
		return nil, &FormatError{Reason: fmt.Sprintf("posting section %d declares %d keys for %d rows", id, nKeys64, v.nEvents)}
	}
	nKeys := int(nKeys64)
	if len(b) < 4+nKeys*12 {
		return nil, &FormatError{Reason: fmt.Sprintf("posting section %d truncated in key headers", id)}
	}
	blobs := b[4+nKeys*12:]
	out := make(map[string]*postingList, nKeys)
	prevKey := ""
	total, off := 0, 0
	for k := 0; k < nKeys; k++ {
		ent := b[4+k*12:]
		keyID := binary.LittleEndian.Uint32(ent)
		count := int(binary.LittleEndian.Uint32(ent[4:]))
		blobLen := int(binary.LittleEndian.Uint32(ent[8:]))
		if keyID >= uint32(v.nStrings) {
			return nil, &FormatError{Reason: fmt.Sprintf("posting section %d key references string %d of %d", id, keyID, v.nStrings)}
		}
		key := v.str(keyID)
		if k > 0 && key <= prevKey {
			return nil, &FormatError{Reason: fmt.Sprintf("posting section %d keys out of order", id)}
		}
		prevKey = key
		if count > v.nEvents-total {
			return nil, &FormatError{Reason: fmt.Sprintf("posting section %d lists more rows than exist", id)}
		}
		if blobLen < 0 || blobLen > len(blobs)-off {
			return nil, &FormatError{Reason: fmt.Sprintf("posting section %d stream overruns the section", id)}
		}
		blob := blobs[off : off+blobLen]
		if err := checkDeltaStream(blob, count, v.nEvents); err != nil {
			return nil, &FormatError{Reason: fmt.Sprintf("posting section %d key %q: %s", id, key, err)}
		}
		out[key] = &postingList{count: count, blob: blob}
		total += count
		off += blobLen
	}
	if off != len(blobs) {
		return nil, &FormatError{Reason: fmt.Sprintf("posting section %d has trailing stream bytes", id)}
	}
	if total != v.nEvents {
		return nil, &FormatError{Reason: fmt.Sprintf("posting section %d covers %d of %d rows", id, total, v.nEvents)}
	}
	return out, nil
}

// checkDeltaStream validates one delta-encoded row-id stream: exactly
// count varints consuming the whole blob, decoding to strictly ascending
// ids below n.
func checkDeltaStream(blob []byte, count, n int) error {
	rest := blob
	prev := 0
	for i := 0; i < count; i++ {
		delta, w := binary.Uvarint(rest)
		if w <= 0 {
			return fmt.Errorf("bad varint at element %d", i)
		}
		rest = rest[w:]
		if i > 0 && delta == 0 {
			return fmt.Errorf("row ids not strictly ascending at element %d", i)
		}
		if delta > uint64(n) || prev+int(delta) >= n {
			return fmt.Errorf("row id out of range at element %d", i)
		}
		prev += int(delta)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d bytes beyond the declared stream", len(rest))
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

// The event-row accessors below produce exactly the string forms
// core.DB.EventsFrame puts in the engine's columns, so a View-backed
// engine answers byte-identically to a freshly built one.

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

// Tag returns event i's fault-tag display name.
func (v *View) Tag(i int) string { return ontology.Tag(v.i64(secEvTag, i)).String() }

// Category returns event i's fault-category display name.
func (v *View) Category(i int) string {
	return ontology.Category(v.i64(secEvCategory, i)).String()
}

// Modality returns event i's modality display name.
func (v *View) Modality(i int) string {
	return schema.Modality(v.i64(secEvModality, i)).String()
}

// Road returns event i's road-type display name.
func (v *View) Road(i int) string { return schema.RoadType(v.i64(secEvRoad, i)).String() }

// Weather returns event i's weather display name.
func (v *View) Weather(i int) string { return schema.Weather(v.i64(secEvWeather, i)).String() }

// ReactionSeconds returns event i's driver reaction time (negative when
// not reported).
func (v *View) ReactionSeconds(i int) float64 { return v.f64(secEvReaction, i) }

// ManufacturerIDs returns the ascending event rows whose lower-cased
// manufacturer equals key, or nil for an unknown key.
func (v *View) ManufacturerIDs(key string) []int { return lookup(v.idxMfr, key) }

// TagIDs returns the ascending event rows whose lower-cased tag display
// name equals key, or nil for an unknown key.
func (v *View) TagIDs(key string) []int { return lookup(v.idxTag, key) }

// CategoryIDs returns the ascending event rows whose lower-cased category
// display name equals key, or nil for an unknown key.
func (v *View) CategoryIDs(key string) []int { return lookup(v.idxCategory, key) }

// lookup resolves one posting list; the returned slice is shared and must
// be treated as read-only.
func lookup(idx map[string]*postingList, key string) []int {
	p := idx[key]
	if p == nil {
		return nil
	}
	return p.rows()
}

// Database materializes the full failure database from the columns —
// heap-allocated, independent of the mapping — built once and cached. The
// engine calls this lazily for the analyses that genuinely need whole
// tables (accident listings, reliability metrics, dataframe export);
// filter/group-by traffic never pays for it. The error is always nil for
// a validated View; the signature matches the engine's lazy-database hook.
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
	if v.nAccidents > 0 {
		db.Accidents = make([]schema.Accident, v.nAccidents)
		for i := range db.Accidents {
			flags := v.sec(secAcFlags)[i]
			db.Accidents[i] = schema.Accident{
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
	}
	return db
}

// Size returns the snapshot's total byte length (header + payload).
func (v *View) Size() int { return len(v.data) }

// Checksum returns the snapshot's CRC-32C payload checksum, verified at
// open. Encoding is deterministic, so the checksum identifies the study's
// content: every node serving the same seed reports the same value, which
// is what lets the serving layer derive HTTP ETags from it.
func (v *View) Checksum() uint32 { return v.crc }

// Close releases the backing mapping for views opened by Open; it is
// idempotent and a no-op for views over caller-owned bytes (NewView).
// After Close, column accessors must not be used; previously materialized
// strings and Database() results remain valid.
func (v *View) Close() error {
	if v.closer == nil || !v.closed.CompareAndSwap(false, true) {
		return nil
	}
	runtime.SetFinalizer(v, nil)
	return v.closer()
}

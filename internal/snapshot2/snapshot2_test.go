package snapshot2

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"avfda/internal/core"
	"avfda/internal/ontology"
	"avfda/internal/report"
	"avfda/internal/schema"
)

// testDB builds a randomized but deterministic database: every field the
// wire format carries is exercised, including empty strings, duplicate
// strings (interning), negative floats, and all flag combinations.
func testDB(seed int64, nEvents, nAccidents int) *core.DB {
	rng := rand.New(rand.NewSource(seed))
	mfrs := []schema.Manufacturer{"Waymo", "Bosch", "Delphi", "Nissan", ""}
	tags := ontology.AllTags()
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)

	db := &core.DB{}
	for i, m := range mfrs {
		db.Fleets = append(db.Fleets, schema.Fleet{
			Manufacturer: m,
			ReportYear:   schema.ReportYear(1 + i%2),
			Cars:         rng.Intn(60),
		})
		db.Mileage = append(db.Mileage, schema.MonthlyMileage{
			Manufacturer: m,
			Vehicle:      schema.VehicleID(fmt.Sprintf("V%03d", i)),
			ReportYear:   schema.ReportYear(1 + i%2),
			Month:        base.AddDate(0, i, 0),
			Miles:        rng.Float64() * 10000,
		})
	}
	for i := 0; i < nEvents; i++ {
		tag := tags[rng.Intn(len(tags))]
		db.Events = append(db.Events, core.Event{
			Disengagement: schema.Disengagement{
				Manufacturer:    mfrs[rng.Intn(len(mfrs))],
				Vehicle:         schema.VehicleID(fmt.Sprintf("V%03d", rng.Intn(8))),
				ReportYear:      schema.ReportYear(1 + rng.Intn(2)),
				Time:            base.AddDate(0, rng.Intn(27), rng.Intn(28)),
				Cause:           fmt.Sprintf("cause %d: sensor glitch é", i),
				Modality:        schema.Modality(rng.Intn(4)),
				Road:            schema.RoadType(rng.Intn(8)),
				Weather:         schema.Weather(rng.Intn(5)),
				ReactionSeconds: rng.Float64()*3 - 0.5,
			},
			Tag:      tag,
			Category: ontology.CategoryOf(tag),
		})
	}
	for i := 0; i < nAccidents; i++ {
		db.Accidents = append(db.Accidents, schema.Accident{
			Manufacturer:     mfrs[rng.Intn(len(mfrs))],
			Vehicle:          schema.VehicleID(fmt.Sprintf("V%03d", rng.Intn(8))),
			ReportYear:       schema.ReportYear(1 + rng.Intn(2)),
			Time:             base.AddDate(0, rng.Intn(27), rng.Intn(28)),
			Location:         fmt.Sprintf("El Camino Real & %dth", i),
			Narrative:        "",
			AVSpeedMPH:       float64(rng.Intn(40)),
			OtherSpeedMPH:    rng.Float64() * 50,
			InAutonomousMode: rng.Intn(2) == 0,
			Redacted:         rng.Intn(3) == 0,
		})
	}
	return db
}

// typedSnapshotError reports whether err is one of the package's typed
// corruption errors — the contract callers classify on.
func typedSnapshotError(err error) bool {
	var fe *FormatError
	var ve *VersionError
	var ce *ChecksumError
	return errors.As(err, &fe) || errors.As(err, &ve) || errors.As(err, &ce)
}

// TestViewRoundTrip pins the core property: a View over encode(db)
// materializes the database exactly, and re-encoding the materialized
// database is byte-identical — the determinism avlint's byte-identity
// contract (and the write→read→re-write test below) relies on.
func TestViewRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 42} {
		db := testDB(seed, 200, 30)
		data, err := Encode(db)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := v.Database()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, db) {
			t.Fatalf("seed %d: materialized database differs from original", seed)
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("seed %d: re-encoding the materialized database changed the bytes", seed)
		}
		if v.Size() != len(data) {
			t.Fatalf("seed %d: Size() = %d, want %d", seed, v.Size(), len(data))
		}
	}
}

// TestViewRoundTripEmpty covers the degenerate database: four zero counts
// must map to nil tables, matching pipeline construction.
func TestViewRoundTripEmpty(t *testing.T) {
	data, err := Encode(&core.DB{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(data)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumRows() != 0 {
		t.Fatalf("NumRows = %d for an empty study", v.NumRows())
	}
	db, err := v.Database()
	if err != nil {
		t.Fatal(err)
	}
	if db.Events != nil || db.Mileage != nil || db.Fleets != nil || db.Accidents != nil {
		t.Fatalf("empty database materialized non-nil tables: %+v", db)
	}
}

// TestWriteReadRewrite is the on-disk half of the byte-identity property:
// write → open → materialize → write again produces an identical file, and
// the atomic write leaves no staging files behind.
func TestWriteReadRewrite(t *testing.T) {
	dir := t.TempDir()
	db := testDB(7, 120, 15)
	if _, err := WriteSeed(dir, 7, db); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(Path(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenSeed(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := v.Database()
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil { // Close is idempotent
		t.Fatal(err)
	}
	if _, err := WriteSeed(dir, 7, loaded); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(Path(dir, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("rewriting a loaded snapshot changed the file bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(Path(dir, 7)) {
		t.Fatalf("snapshot dir left extra files: %v", entries)
	}
}

// TestTruncationRejected feeds every prefix of a valid snapshot to NewView;
// all of them must fail with a typed error, never a panic or a silently
// partial view. This is also the SIGBUS guard: Open validates the length
// and checksum before any accessor touches the mapping (DESIGN.md §7).
func TestTruncationRejected(t *testing.T) {
	data, err := Encode(testDB(3, 40, 6))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		v, err := NewView(data[:n])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes opened to %v", n, len(data), v)
		}
		if !typedSnapshotError(err) {
			t.Fatalf("prefix of %d bytes: untyped error %v", n, err)
		}
	}
}

// TestBitFlipRejected flips every byte of a valid snapshot in turn; the
// CRC-32C (or header validation) must catch each one.
func TestBitFlipRejected(t *testing.T) {
	data, err := Encode(testDB(5, 40, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		mut := bytes.Clone(data)
		mut[i] ^= 0x40
		v, err := NewView(mut)
		if err == nil {
			t.Fatalf("flip at byte %d opened to %v", i, v)
		}
		if !typedSnapshotError(err) {
			t.Fatalf("flip at byte %d: untyped error %v", i, err)
		}
	}
}

// TestTrailingBytesRejected appends garbage after a valid payload.
func TestTrailingBytesRejected(t *testing.T) {
	data, err := Encode(testDB(9, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := NewView(append(bytes.Clone(data), 0xFF)); !errors.As(err, &fe) {
		t.Fatalf("trailing byte: got %v, want *FormatError", err)
	}
}

// TestVersionRejected patches the header version; readers must refuse any
// version other than their own, per the compatibility policy.
func TestVersionRejected(t *testing.T) {
	data, err := Encode(testDB(13, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	binary.LittleEndian.PutUint16(mut[len(magic):], Version+1)
	var ve *VersionError
	if _, err := NewView(mut); !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	} else if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError = %+v", ve)
	}
}

// TestV1MagicRejected pins the cross-format contract: a v1 snapshot fed to
// the v2 reader fails cleanly on the magic, not deeper in.
func TestV1MagicRejected(t *testing.T) {
	var fe *FormatError
	if _, err := NewView([]byte("AVFDSNAP\x01\x00________padding_to_header_len")); !errors.As(err, &fe) {
		t.Fatalf("v1 magic: got %v, want *FormatError", err)
	}
}

// TestChecksumRejected corrupts a payload byte without touching the header;
// only the checksum can catch it.
func TestChecksumRejected(t *testing.T) {
	data, err := Encode(testDB(17, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(data)
	mut[len(mut)-1] ^= 1
	var ce *ChecksumError
	if _, err := NewView(mut); !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ChecksumError", err)
	} else if ce.Got == ce.Want {
		t.Fatalf("ChecksumError checksums match: %+v", ce)
	}
}

// reseal recomputes the payload length and CRC-32C over a mutated payload,
// producing a file that passes the header checks so the structural
// validators must catch the damage themselves.
func reseal(header, payload []byte) []byte {
	out := append([]byte(nil), header[:headerLen]...)
	binary.LittleEndian.PutUint64(out[len(magic)+2:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[len(magic)+10:], crc32.Checksum(payload, castagnoli))
	return append(out, payload...)
}

// sectionRange locates a section's [start, end) within the payload via the
// directory, for surgical corruption.
func sectionRange(t *testing.T, payload []byte, id uint32) (int, int) {
	t.Helper()
	ent := payload[4+int(id-1)*20:]
	if got := binary.LittleEndian.Uint32(ent); got != id {
		t.Fatalf("directory entry for section %d carries id %d", id, got)
	}
	start := binary.LittleEndian.Uint64(ent[4:])
	length := binary.LittleEndian.Uint64(ent[12:])
	return int(start), int(start + length)
}

// TestCorruptPayloadBehindValidChecksum re-seals structurally invalid
// payloads with a correct checksum: the directory, column, and
// string-table validators must each reject their own class of damage with a
// *FormatError — corruption can never surface later as a panic or a wrong
// answer from an accessor.
func TestCorruptPayloadBehindValidChecksum(t *testing.T) {
	db := testDB(19, 60, 8)
	data, err := Encode(db)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, payload []byte)
	}{
		{"section count", func(t *testing.T, p []byte) {
			binary.LittleEndian.PutUint32(p, numSections+1)
		}},
		{"directory id", func(t *testing.T, p []byte) {
			binary.LittleEndian.PutUint32(p[4:], 99)
		}},
		{"section tiling", func(t *testing.T, p []byte) {
			// Shift the second section's declared start: tiling breaks.
			off := binary.LittleEndian.Uint64(p[4+20+4:])
			binary.LittleEndian.PutUint64(p[4+20+4:], off+1)
		}},
		{"meta count out of range", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secMeta)
			binary.LittleEndian.PutUint64(p[start:], 1<<40)
		}},
		{"meta count vs section size", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secMeta)
			binary.LittleEndian.PutUint64(p[start:], uint64(len(db.Events)+1))
		}},
		{"string offsets start", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secStrOffsets)
			binary.LittleEndian.PutUint32(p[start:], 1)
		}},
		{"string offsets monotonic", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secStrOffsets)
			binary.LittleEndian.PutUint32(p[start+4:], 0xFFFFFFFF)
		}},
		{"string id out of range", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secEvMfr)
			binary.LittleEndian.PutUint32(p[start:], 0xFFFFFFFF)
		}},
		{"nanoseconds out of range", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secEvTimeNsec)
			binary.LittleEndian.PutUint64(p[start:], 2_000_000_000)
		}},
		{"undefined flag bits", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secAcFlags)
			p[start] = 0xFF
		}},
		{"answer slot out of bounds", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secAnswerSlots)
			binary.LittleEndian.PutUint32(p[start+4:], 0xFFFFFFFF)
		}},
		{"answer slots short of the bodies", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secAnswerSlots)
			last := start + (NumSlots-1)*answerSlotLen
			binary.LittleEndian.PutUint32(p[last+4:], binary.LittleEndian.Uint32(p[last+4:])-1)
		}},
		{"answer status", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secAnswerSlots)
			binary.LittleEndian.PutUint16(p[start:], 404)
		}},
		{"answer content type", func(t *testing.T, p []byte) {
			start, _ := sectionRange(t, p, secAnswerSlots)
			binary.LittleEndian.PutUint16(p[start+2:], uint16(len(contentTypes)))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := bytes.Clone(data[headerLen:])
			tc.mutate(t, payload)
			mut := reseal(data, payload)
			v, err := NewView(mut)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("got view=%v err=%v, want *FormatError", v, err)
			}
		})
	}
}

// TestOpenMissing maps a nonexistent file to fs.ErrNotExist so cache tiers
// can tell "no snapshot yet" from corruption.
func TestOpenMissing(t *testing.T) {
	if _, err := OpenSeed(t.TempDir(), 404); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}

// TestOpenEmptyFile classifies a zero-length file as the truncation it is
// instead of attempting an invalid zero-length mapping.
func TestOpenEmptyFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir, 1), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := OpenSeed(dir, 1); !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError", err)
	}
}

// TestEncodeNil rejects a nil database instead of writing an empty study.
func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("want error for nil database")
	}
}

// TestPathShape pins the cross-binary file naming contract: the v2 file
// sits beside the v1 study-<seed>.avsnap under a distinct extension.
func TestPathShape(t *testing.T) {
	if got := Path("snaps", 42); got != filepath.Join("snaps", "study-42.avsnap2") {
		t.Fatalf("Path = %q", got)
	}
}

// sectionDigest is the SHA-256 of the contents of sections first..last, in
// directory order: what a reader of those sections decodes.
func sectionDigest(t *testing.T, data []byte, first, last uint32) string {
	t.Helper()
	payload := data[headerLen:]
	h := sha256.New()
	for id := first; id <= last; id++ {
		start, end := sectionRange(t, payload, id)
		h.Write(payload[start:end])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEarlierSectionsUnchanged pins the contents of every section before
// the answers (meta, string table, columns) to the bytes the version 3
// format wrote for the same databases, so adding the answer sections moved
// only the directory offsets: each earlier section decodes as before.
func TestEarlierSectionsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *core.DB
		want string
	}{
		{"random", testDB(19, 60, 8), "8ef5c370bdc8a7e79e2fa35522cbf5bbcb00d49f517f1c0743bda1eddd37b175"},
		{"empty", &core.DB{}, "d7e9312aec58e7d22f7ff21ecca282c5b1cbd64763526652b5543fa0b103e765"},
	} {
		data, err := Encode(tc.db)
		if err != nil {
			t.Fatal(err)
		}
		if got := sectionDigest(t, data, secMeta, secAcFlags); got != tc.want {
			t.Errorf("%s: sections %d..%d digest %s, want %s", tc.name, secMeta, secAcFlags, got, tc.want)
		}
	}
}

// TestAnswersStored: every slot of an encoded study holds report.Answers'
// answer for its database, with its status and content type, and passes
// CheckAnswers, on a random database and an empty one.
func TestAnswersStored(t *testing.T) {
	for _, db := range []*core.DB{testDB(5, 80, 9), {}} {
		data, err := Encode(db)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewView(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.CheckAnswers(); err != nil {
			t.Errorf("encoded study fails its own answer check: %v", err)
		}
		want := report.Answers(db.Exposure())
		for s := Slot(0); int(s) < NumSlots; s++ {
			status, ct := v.Answer(s)
			if status != want[s].Status || ct != want[s].ContentType {
				t.Errorf("slot %d (%s): %d %q, want %d %q", s, report.AnswerKeys[s], status, ct, want[s].Status, want[s].ContentType)
			}
			if got := v.AppendAnswer([]byte("x"), s); !bytes.Equal(got, append([]byte("x"), want[s].Body...)) {
				t.Errorf("slot %d (%s): body %q, want %q", s, report.AnswerKeys[s], got, want[s].Body)
			}
		}
	}
	for i, id := range report.AnswerKeys {
		if s, ok := TableSlot(id); ok != (i > 0) || (ok && int(s) != i) {
			t.Errorf("TableSlot(%q) = %d, %v", id, s, ok)
		}
	}
	if _, ok := TableSlot("ii"); ok {
		t.Error(`TableSlot("ii") found a slot; Table II is not served`)
	}
}

// TestCheckAnswersNamesFirstDifferingSlot: a file whose stored answers were
// edited behind a valid checksum opens, and CheckAnswers names the first
// slot that no longer matches a render of the columns.
func TestCheckAnswersNamesFirstDifferingSlot(t *testing.T) {
	data, err := Encode(testDB(5, 80, 9))
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := TableSlot("iv")
	vii, _ := TableSlot("vii")
	for _, tc := range []struct {
		name   string
		mutate func(p []byte)
		want   Slot
	}{
		{"table iv body", func(p []byte) {
			start, _ := sectionRange(t, p, secAnswerBodies)
			for s := Slot(0); s < iv; s++ {
				start += int(binary.LittleEndian.Uint32(p[slotEntry(t, p, s)+4:]))
			}
			p[start] ^= 0x20
		}, iv},
		{"reliability status", func(p []byte) {
			binary.LittleEndian.PutUint16(p[slotEntry(t, p, SlotReliability):], report.StatusError)
		}, SlotReliability},
		{"table vii content type", func(p []byte) {
			binary.LittleEndian.PutUint16(p[slotEntry(t, p, vii)+2:], 0)
		}, vii},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := bytes.Clone(data[headerLen:])
			tc.mutate(payload)
			v, err := NewView(reseal(data, payload))
			if err != nil {
				t.Fatal(err)
			}
			var ae *AnswerError
			if err := v.CheckAnswers(); !errors.As(err, &ae) || ae.Slot != tc.want {
				t.Errorf("CheckAnswers = %v, want an *AnswerError for slot %d", err, tc.want)
			}
		})
	}
}

// slotEntry returns the payload offset of slot s's answer-slot entry.
func slotEntry(t *testing.T, payload []byte, s Slot) int {
	start, _ := sectionRange(t, payload, secAnswerSlots)
	return start + int(s)*answerSlotLen
}

// TestFleetManufacturerIDValidated: a fleet manufacturer id past the
// string table, behind a valid checksum, is a *FormatError at open, like
// every other string-id column, so no accessor or summary resolves it.
func TestFleetManufacturerIDValidated(t *testing.T) {
	data, err := Encode(testDB(19, 60, 8))
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Clone(data[headerLen:])
	start, end := sectionRange(t, payload, secFlMfr)
	if start == end {
		t.Fatal("fixture has no fleet rows")
	}
	binary.LittleEndian.PutUint32(payload[start:], 0xFFFFFFFF)
	var fe *FormatError
	if v, err := NewView(reseal(data, payload)); !errors.As(err, &fe) {
		t.Fatalf("got view=%v err=%v, want *FormatError", v, err)
	}
}

// oddCodes rewrites an encoded study's event report years, categories,
// tags and modalities to codes outside their types' defined values, and
// its miles and fleet sizes to non-finite and negative values, behind a
// valid checksum: columns that open without a range check and reach the
// summary behind the answers.
func oddCodes(data []byte) []byte {
	payload := bytes.Clone(data[headerLen:])
	le := binary.LittleEndian
	column := func(id uint32) []byte {
		ent := payload[4+int(id-1)*20:]
		start := le.Uint64(ent[4:])
		return payload[start : start+le.Uint64(ent[12:])]
	}
	for id, code := range map[uint32]func(i int) uint64{
		secEvYear:     func(i int) uint64 { return uint64(i) << 40 },
		secEvCategory: func(i int) uint64 { return uint64(-i) },
		secEvTag:      func(i int) uint64 { return uint64(1000 + i) },
		secEvModality: func(i int) uint64 { return uint64(i - 50) },
		secMlMiles:    func(i int) uint64 { return math.Float64bits([]float64{math.NaN(), math.Inf(1), -1}[i%3]) },
		secFlCars:     func(i int) uint64 { return uint64(-i) },
	} {
		col := column(id)
		for i := 0; 8*i < len(col); i++ {
			le.PutUint64(col[8*i:], code(i))
		}
	}
	return reseal(data, payload)
}

// TestCheckAnswersOnOddCodes: a study whose code columns hold values its
// encoder never writes still opens, renders and checks: CheckAnswers
// reports the stored answers as stale, it does not panic.
func TestCheckAnswersOnOddCodes(t *testing.T) {
	data, err := Encode(testDB(5, 80, 9))
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewView(oddCodes(data))
	if err != nil {
		t.Fatal(err)
	}
	var ae *AnswerError
	if err := v.CheckAnswers(); !errors.As(err, &ae) {
		t.Errorf("CheckAnswers = %v, want an *AnswerError", err)
	}
}

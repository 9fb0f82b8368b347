package snapshot2_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/report"
	"avfda/internal/snapshot2"
)

// renderAnswers renders a study's eight served answers the way avserve
// rendered them on each request before they were stored: the JSON of the
// reliability metrics, then each paper table's text.
func renderAnswers(t *testing.T, db *core.DB) [][]byte {
	t.Helper()
	rows, err := query.Reliability(db.Exposure())
	if err != nil {
		t.Fatal(err)
	}
	var rel bytes.Buffer
	enc := json.NewEncoder(&rel)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(core.ReliabilityResponse{Manufacturers: rows}); err != nil {
		t.Fatal(err)
	}
	vii, err := report.TableVII(db)
	if err != nil {
		t.Fatal(err)
	}
	viii, err := report.TableVIII(db)
	if err != nil {
		t.Fatal(err)
	}
	out := [][]byte{rel.Bytes()}
	for _, text := range []string{report.TableI(db), report.TableIII(), report.TableIV(db),
		report.TableV(db), report.TableVI(db), vii, viii} {
		out = append(out, []byte(text))
	}
	return out
}

// TestStoredAnswersMatchRender: on calibrated studies, including the two
// seeds whose corpus misses the paper's headline counts, every stored
// answer of a fresh encoding and of its file is a 200 whose body is
// byte-identical to a render of the database.
func TestStoredAnswersMatchRender(t *testing.T) {
	dir := t.TempDir()
	for _, seed := range []int64{1, 2, 41, 165, 190, 500} {
		db := calibratedDB(t, seed)
		want := renderAnswers(t, db)
		if len(want) != snapshot2.NumSlots {
			t.Fatalf("%d reference answers, %d slots", len(want), snapshot2.NumSlots)
		}
		if _, err := snapshot2.WriteSeed(dir, seed, db); err != nil {
			t.Fatal(err)
		}
		mapped, err := snapshot2.OpenSeed(dir, seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := query.New(db)
		if err != nil {
			t.Fatal(err)
		}
		for s := snapshot2.Slot(0); int(s) < snapshot2.NumSlots; s++ {
			wantType := report.ContentText
			if s == snapshot2.SlotReliability {
				wantType = report.ContentJSON
			}
			for name, answer := range map[string]interface {
				Answer(snapshot2.Slot) (int, string)
				AppendAnswer([]byte, snapshot2.Slot) []byte
			}{"mapped": mapped, "fresh": fresh} {
				if status, ct := answer.Answer(s); status != 200 || ct != wantType {
					t.Errorf("seed %d %s %s: %d %q, want 200 %q", seed, name, report.AnswerKeys[s], status, ct, wantType)
				}
				if got := answer.AppendAnswer(nil, s); !bytes.Equal(got, want[s]) {
					t.Errorf("seed %d %s %s: stored body differs from a render:\n got %q\nwant %q",
						seed, name, report.AnswerKeys[s], got, want[s])
				}
			}
		}
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

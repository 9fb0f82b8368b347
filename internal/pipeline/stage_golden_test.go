package pipeline_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"avfda/internal/ocr"
	"avfda/internal/scandoc"
	"avfda/internal/synth"
)

// TestStageGoldens pins SHA-256 digests of two Stage I-II intermediates:
// the pages scandoc.Render produces and the lines, confidences and artifact
// counts the OCR engine decodes from them. TestStudyCRCGolden only sees the
// consolidated study, so a change that alters a page but happens to parse
// back to the same study would pass it; these digests catch that.
func TestStageGoldens(t *testing.T) {
	golden := []struct {
		seed          int64
		render, ocred string
	}{
		{1,
			"1a0d9748a20b812878b381177be52281a03daf95e1fdc5dd146404acbdcc4da8",
			"432ab2bdff6b25bbbe069e2615e50dc6215d2c4fd40e484aaba9c7a2c9650c8b"},
		{41,
			"36c99f8138de1f7c318267b20dd12241303c801ce4f6209a3764e54c72fc154e",
			"7ca0392a52d6a5ae3ba65afee58f4560279c285f2ae4a59e3216354095c2be09"},
		{165,
			"2802b880863d0d3332494676426cebcc4083a070263c90f673e6213b143a2826",
			"2dc8e28043a615ee067eb01f0a857282e4f7a5f1fb37c27191c448c709c50bd9"},
		{500,
			"6050c33d6b4c3bfe0a0b97bb835d93713b6d72518067c826810935902ec2a5c2",
			"5338f2e7227dbfdf8f985c11e6801423ec10b43fe7d1b96baddba65dfad7dd81"},
	}
	for _, g := range golden {
		truth, err := synth.Generate(synth.Config{Seed: g.seed})
		if err != nil {
			t.Fatalf("seed %d: %v", g.seed, err)
		}
		docs := scandoc.Render(&truth.Corpus)
		cfg := ocr.DefaultConfig()
		cfg.Seed = g.seed
		engine, err := ocr.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderDigest(docs); got != g.render {
			t.Errorf("seed %d: render digest %s, want %s", g.seed, got, g.render)
		}
		if got := ocrDigest(engine.DecodeAll(docs)); got != g.ocred {
			t.Errorf("seed %d: OCR digest %s, want %s", g.seed, got, g.ocred)
		}
	}
}

// digestWriter frames every field with its length, so no two different
// sequences of fields hash alike.
type digestWriter struct{ h hash.Hash }

func (d digestWriter) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digestWriter) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digestWriter) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func renderDigest(docs []scandoc.Document) string {
	d := digestWriter{sha256.New()}
	for _, doc := range docs {
		d.str(doc.ID)
		d.int(int64(doc.Kind))
		d.str(string(doc.Manufacturer))
		d.int(int64(doc.ReportYear))
		d.int(int64(len(doc.Pages)))
		for _, p := range doc.Pages {
			hw := int64(0)
			if p.Handwritten {
				hw = 1
			}
			d.int(hw)
			d.int(int64(len(p.Lines)))
			for _, l := range p.Lines {
				d.str(l)
			}
		}
	}
	return d.sum()
}

func ocrDigest(results []ocr.Result) string {
	d := digestWriter{sha256.New()}
	for _, r := range results {
		d.str(r.DocID)
		d.int(int64(len(r.Lines)))
		for _, l := range r.Lines {
			d.str(l)
		}
		d.int(int64(math.Float64bits(r.Confidence)))
		d.int(int64(r.ManualPages))
		d.int(int64(r.TotalPages))
		d.int(int64(r.Substitutions))
		d.int(int64(r.DroppedSeparators))
		d.int(int64(r.MergedLines))
	}
	return d.sum()
}

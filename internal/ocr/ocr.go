// Package ocr simulates the optical character recognition step of the
// paper's pipeline (Stage II step 1, Google Tesseract in the original).
//
// The real study consumed scanned PDFs; what the downstream pipeline sees
// is OCR output text with characteristic defects, plus a manual-
// transcription fallback when recognition fails (low-resolution scans,
// unrecognized table formats). This engine reproduces those artifact
// classes with a configurable noise model:
//
//   - visually confusable character substitutions (0↔O, 1↔l, 5↔S, ...),
//   - dropped field separators (| and — lost in table rules),
//   - merged adjacent lines (failed line segmentation),
//
// and produces per-page confidence scores. Pages whose confidence falls
// below Config.ManualThreshold are routed to the manual-transcription
// branch: the ground-truth lines are used and ManualPages is incremented,
// exactly mirroring the paper's workflow.
package ocr

import (
	"context"
	"errors"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"unicode/utf8"

	"avfda/internal/scandoc"
)

// Config parameterizes the OCR noise model.
type Config struct {
	// SubstitutionRate is the per-character probability of a confusable
	// substitution on printed pages (default 0.002). Handwritten pages
	// use HandwrittenFactor times this.
	SubstitutionRate float64
	// SeparatorDropRate is the per-separator probability of losing a
	// field separator (default 0.002).
	SeparatorDropRate float64
	// LineMergeRate is the per-line probability of merging with the next
	// line (default 0.001).
	LineMergeRate float64
	// HandwrittenFactor multiplies SubstitutionRate on handwritten pages
	// (default 4).
	HandwrittenFactor float64
	// ManualThreshold routes pages with confidence below it to manual
	// transcription (default 0.90).
	ManualThreshold float64
	// Seed drives the noise; equal seeds give identical decodes.
	Seed int64
}

// DefaultConfig returns the noise model used for the reproduction runs.
func DefaultConfig() Config {
	return Config{
		SubstitutionRate:  0.002,
		SeparatorDropRate: 0.002,
		LineMergeRate:     0.001,
		HandwrittenFactor: 4,
		ManualThreshold:   0.90,
		Seed:              1,
	}
}

// Clean returns a zero-noise configuration (OCR identity), used by the
// round-trip integrity tests and the noise ablation's baseline point.
func Clean() Config {
	c := DefaultConfig()
	c.SubstitutionRate = 0
	c.SeparatorDropRate = 0
	c.LineMergeRate = 0
	return c
}

// confusions maps characters to their visually confusable decodings,
// indexed by character code: every confusable character is ASCII.
var confusions = [128][]rune{
	'0': {'O'}, 'O': {'0'},
	'1': {'l', 'I'}, 'l': {'1'}, 'I': {'1', 'l'},
	'5': {'S'}, 'S': {'5'},
	'8': {'B'}, 'B': {'8'},
	'2': {'Z'}, 'Z': {'2'},
	'6': {'G'}, 'G': {'6'},
	'g': {'q'}, 'q': {'g'},
	'e': {'c'}, 'c': {'e'},
	'n': {'h'}, 'h': {'n'},
	'u': {'v'}, 'v': {'u'},
	'a': {'o'},
	't': {'f'}, 'f': {'t'},
}

// Result is the OCR decode of one document.
type Result struct {
	// DocID echoes the source document ID.
	DocID string
	// Lines is the decoded text, page breaks flattened.
	Lines []string
	// Confidence is the mean per-page confidence in [0, 1].
	Confidence float64
	// ManualPages counts pages that fell below the manual threshold and
	// were transcribed by hand (ground truth used).
	ManualPages int
	// TotalPages is the page count.
	TotalPages int
	// Substitutions, DroppedSeparators, and MergedLines count the noise
	// artifacts actually introduced.
	Substitutions     int
	DroppedSeparators int
	MergedLines       int
}

// Engine decodes scandoc documents under a noise model.
//
// Noise is derived per document from Config.Seed and the document ID, so
// every document's decode is independent of decode order: Decode, DecodeAll,
// and DecodeAllConcurrent all produce byte-identical results for the same
// configuration.
type Engine struct {
	cfg Config
}

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.SubstitutionRate < 0 || cfg.SubstitutionRate > 1 ||
		cfg.SeparatorDropRate < 0 || cfg.SeparatorDropRate > 1 ||
		cfg.LineMergeRate < 0 || cfg.LineMergeRate > 1 {
		return nil, errors.New("ocr: rates must be in [0,1]")
	}
	if cfg.HandwrittenFactor <= 0 {
		cfg.HandwrittenFactor = 4
	}
	if cfg.ManualThreshold < 0 || cfg.ManualThreshold > 1 {
		return nil, errors.New("ocr: manual threshold must be in [0,1]")
	}
	return &Engine{cfg: cfg}, nil
}

// docRNG derives the document's private noise source.
func (e *Engine) docRNG(docID string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(docID))
	return rand.New(rand.NewSource(e.cfg.Seed ^ int64(h.Sum64())))
}

// Decode runs OCR over one document.
func (e *Engine) Decode(doc *scandoc.Document) Result {
	res := Result{DocID: doc.ID, TotalPages: len(doc.Pages)}
	rng := e.docRNG(doc.ID)
	// Size the lines and the page buffer up front: a page decodes to at
	// most its own length unless it holds invalid UTF-8.
	nLines, pageBytes := 0, 0
	for _, page := range doc.Pages {
		nLines += len(page.Lines)
		n := 0
		for _, l := range page.Lines {
			n += len(l)
		}
		pageBytes = max(pageBytes, n)
	}
	res.Lines = make([]string, 0, nLines)
	buf := make([]byte, 0, pageBytes)
	var confSum float64
	for _, page := range doc.Pages {
		lines, conf, stats, next := e.decodePage(page, rng, buf)
		buf = next
		confSum += conf
		if conf < e.cfg.ManualThreshold {
			// Manual transcription: the paper's fallback for pages
			// Tesseract could not handle.
			res.ManualPages++
			res.Lines = append(res.Lines, page.Lines...)
			continue
		}
		res.Lines = append(res.Lines, lines...)
		res.Substitutions += stats.subs
		res.DroppedSeparators += stats.seps
		res.MergedLines += stats.merges
	}
	if res.TotalPages > 0 {
		res.Confidence = confSum / float64(res.TotalPages)
	} else {
		res.Confidence = 1
	}
	return res
}

// DecodeAll decodes every document sequentially.
func (e *Engine) DecodeAll(docs []scandoc.Document) []Result {
	out := make([]Result, len(docs))
	for i := range docs {
		out[i] = e.Decode(&docs[i])
	}
	return out
}

// DecodeAllConcurrent decodes the document set with a bounded worker pool.
// Results are identical to DecodeAll (noise is per-document, not
// per-order) and returned in input order. A canceled context abandons
// remaining work and returns the context error; workers <= 0 selects
// GOMAXPROCS.
func (e *Engine) DecodeAllConcurrent(ctx context.Context, docs []scandoc.Document, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(docs) {
		workers = len(docs)
	}
	if workers <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return e.DecodeAll(docs), nil
	}
	out := make([]Result, len(docs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = e.Decode(&docs[i])
			}
		}()
	}
	var ctxErr error
feed:
	for i := range docs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			ctxErr = ctx.Err()
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if ctxErr != nil {
		return nil, ctxErr
	}
	return out, nil
}

// pageStats counts artifacts introduced on one page.
type pageStats struct {
	subs, seps, merges int
}

// decodePage applies the noise model to one page and estimates confidence.
// Confidence is modeled as the fraction of characters decoded without a
// substitution event (what a real engine reports as mean symbol
// confidence), degraded further on handwritten pages.
//
// The page decodes into buf, which is returned for reuse, and its lines
// are slices of one string copied from it. Characters are runes: ASCII
// bytes take a byte path, anything else is decoded as a range loop would,
// so an invalid byte becomes U+FFFD.
func (e *Engine) decodePage(p scandoc.Page, rng *rand.Rand, buf []byte) ([]string, float64, pageStats, []byte) {
	subRate := e.cfg.SubstitutionRate
	if p.Handwritten {
		subRate *= e.cfg.HandwrittenFactor
	}
	var st pageStats
	var chars, errsChars int
	buf = buf[:0]
	var endsArr [64]int // fits a page of scandoc's 56 lines on the stack
	ends := endsArr[:0]
	for _, line := range p.Lines {
		for i := 0; i < len(line); {
			chars++
			c := line[i]
			if c < utf8.RuneSelf {
				i++
				if c == '|' && rng.Float64() < e.cfg.SeparatorDropRate {
					st.seps++
					errsChars++
					continue
				}
				if alts := confusions[c]; alts != nil && rng.Float64() < subRate {
					buf = utf8.AppendRune(buf, alts[rng.Intn(len(alts))])
					st.subs++
					errsChars++
					continue
				}
				buf = append(buf, c)
				continue
			}
			r, size := utf8.DecodeRuneInString(line[i:])
			i += size
			if r == '—' && rng.Float64() < e.cfg.SeparatorDropRate {
				st.seps++
				errsChars++
				continue
			}
			buf = utf8.AppendRune(buf, r)
		}
		ends = append(ends, len(buf))
	}
	text := string(buf)
	out := make([]string, len(p.Lines))
	start := 0
	for li, end := range ends {
		out[li] = text[start:end]
		start = end
	}
	// Line merges: join a line with its successor.
	for i := 0; i < len(out)-1; {
		if rng.Float64() < e.cfg.LineMergeRate {
			out[i] = out[i] + " " + out[i+1]
			out = append(out[:i+1], out[i+2:]...)
			st.merges++
			errsChars += 2
			continue
		}
		i++
	}
	conf := 1.0
	if chars > 0 {
		conf = 1 - float64(errsChars)/float64(chars)
	}
	if p.Handwritten {
		// Handwriting reads lower-confidence even when correct.
		conf -= 0.03
		if conf < 0 {
			conf = 0
		}
	}
	return out, conf, st, buf
}

package serve

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"strconv"
)

// A study never changes once built, so its parameterless answers —
// metrics/reliability and tables/{id} — are a fixed function of it. The
// first successful request renders each one, gzips it once and stores both
// representations in Study.memo; every later request writes the stored
// bytes. A failed render stores nothing, so the next request tries again.
// The keys are the reliability route plus the seven table ids, so a study
// holds at most eight bodies, and the cache drops them when it evicts the
// study.

// memoBody is one memoized answer in both of its representations.
type memoBody struct {
	contentType string
	identity    []byte
	gzip        []byte
}

// serveMemo writes the study's answer for key with a Content-Length, in
// the representation the client negotiated. On a memo miss render produces
// the identity body and its Content-Type; its error is returned untouched
// and nothing is written, so the handler reports it.
func serveMemo(w http.ResponseWriter, r *http.Request, study *Study, key string,
	render func() (contentType string, body []byte, err error)) error {
	v, ok := study.memo.Load(key)
	if !ok {
		contentType, body, err := render()
		if err != nil {
			return err
		}
		// Requests racing the first one may each render; all of them
		// write the body stored first.
		v, _ = study.memo.LoadOrStore(key, &memoBody{contentType: contentType, identity: body, gzip: gzipBytes(body)})
	}
	b := v.(*memoBody)
	h := w.Header()
	payload := b.identity
	if acceptsGzip(r) {
		// A set Content-Encoding makes the gzip middleware pass the stored
		// stream through instead of compressing it again.
		payload = b.gzip
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Type", b.contentType)
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
	return nil
}

// gzipBytes compresses p with the pooled compressor, so a memoized gzip
// body is the same byte stream the middleware would have written for it.
func gzipBytes(p []byte) []byte {
	var buf bytes.Buffer
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(&buf)
	_, _ = gz.Write(p)
	_ = gz.Close()
	gz.Reset(nil)
	gzipWriters.Put(gz)
	return buf.Bytes()
}

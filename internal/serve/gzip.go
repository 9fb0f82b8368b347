package serve

import (
	"compress/gzip"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// gzipLevel is the level of every gzip body the server writes. At every
// other level, compress/flate's Reset clears 640 KB of hash tables
// (hashHead, hashPrev), which costs more than deflating a typical 2 KB
// JSON answer. BestSpeed skips that. With disengagement pages written
// from the columns (query.Engine.AppendEventsJSON), BenchmarkServeRoutes
// on 2 vCPU serves a 1000-row page in 2.4–2.7 ms instead of 5.3–6.0 ms
// and gzips it to 30.2 KB instead of 21.5 KB; a 50-row page takes
// 143–160 µs instead of 296–307 µs, at 2.3 KB instead of 2.0 KB. gzip is
// now most of a large page's cost.
const gzipLevel = gzip.BestSpeed

// gzipWriters pools compressors so the per-response cost is a Reset, not
// an allocation of gzip's window buffers.
var gzipWriters = sync.Pool{
	New: func() any {
		gz, _ := gzip.NewWriterLevel(nil, gzipLevel)
		return gz
	},
}

// acceptsGzip reports whether the client negotiated gzip: Accept-Encoding
// lists the "gzip" coding with a q-value other than zero. RFC 9110
// §12.5.3 makes q=0 (also written 0.0 or 0.000) mean "not acceptable",
// so such a client gets the identity body under the unsuffixed ETag.
// Any other q-value, a malformed one included, accepts; "*", "identity"
// and an absent header get the identity body.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, params, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			return !zeroQ(params)
		}
	}
	return false
}

// zeroQ reports whether a coding's ";"-separated parameters set q to zero.
func zeroQ(params string) bool {
	for _, param := range strings.Split(params, ";") {
		name, value, _ := strings.Cut(param, "=")
		if strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
			return err == nil && q == 0
		}
	}
	return false
}

// compressible reports whether a content type is worth gzipping: the JSON
// and text bodies every study endpoint emits. Binary snapshot streams
// (application/octet-stream) pass through untouched, so a peer fetch costs
// the sending backend no compression CPU. They would compress: the seed-1
// snapshot, 558 KB, is 82 KB at gzip level 1.
func compressible(contentType string) bool {
	return strings.HasPrefix(contentType, "application/json") ||
		strings.HasPrefix(contentType, "text/")
}

// gzipResponseWriter compresses 200-status compressible responses on the
// fly. The decision is deferred to WriteHeader time, when the status and
// Content-Type are known; error responses, 304s, and binary bodies pass
// through identity-encoded.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz          *gzip.Writer
	wroteHeader bool
}

// newGzipResponseWriter wraps w for a client that accepts gzip. close
// must be called after the handler returns to flush the compressor and
// return it to the pool.
func newGzipResponseWriter(w http.ResponseWriter) *gzipResponseWriter {
	return &gzipResponseWriter{ResponseWriter: w}
}

// WriteHeader decides the encoding and forwards the status.
func (g *gzipResponseWriter) WriteHeader(code int) {
	if g.wroteHeader {
		g.ResponseWriter.WriteHeader(code)
		return
	}
	g.wroteHeader = true
	h := g.Header()
	if code == http.StatusOK && compressible(h.Get("Content-Type")) && h.Get("Content-Encoding") == "" {
		h.Set("Content-Encoding", "gzip")
		// The compressed length is unknowable up front; drop any length
		// the handler computed for the identity body.
		h.Del("Content-Length")
		g.gz = gzipWriters.Get().(*gzip.Writer)
		g.gz.Reset(g.ResponseWriter)
	}
	g.ResponseWriter.WriteHeader(code)
}

// Write compresses the body when WriteHeader elected gzip.
func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if g.gz != nil {
		return g.gz.Write(p)
	}
	return g.ResponseWriter.Write(p)
}

// Flush pushes buffered compressed bytes downstream so streaming handlers
// still stream when their output is gzipped.
func (g *gzipResponseWriter) Flush() {
	if g.gz != nil {
		_ = g.gz.Flush()
	}
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// close finalizes the gzip stream (writing the trailer) and recycles the
// compressor. It must run after the handler, exactly once.
func (g *gzipResponseWriter) close() {
	if g.gz == nil {
		return
	}
	_ = g.gz.Close()
	g.gz.Reset(nil)
	gzipWriters.Put(g.gz)
	g.gz = nil
}

// Package serve is the HTTP serving layer over the failure database
// (system #19 in DESIGN.md §2): a stdlib-only JSON API that turns the
// batch toolchain into a long-running service.
//
// Studies are expensive to build (a full Stage I-IV pipeline run), so the
// server keeps a seed-keyed LRU cache guarded by singleflight: the first
// request for a seed builds the study exactly once no matter how many
// requests race, later requests are answered from memory, and an evicted
// study is simply rebuilt on next use. With Config.SnapshotDir set the
// cache gains a second tier: a miss first maps the seed's persisted v2
// study snapshot (internal/snapshot2), then asks Config.SnapshotPeers, and
// only falls back to the pipeline when none is usable, writing the built
// study through as v2 for the next cold process. Every request runs under a
// deadline (Config.RequestTimeout); a request that times out while its
// study is still building returns 504 without cancelling the build, which
// completes in the background and serves the retry. Request counts,
// latency histograms, and cache counters are exported in Prometheus text
// format at /metrics.
//
// Routes:
//
//	GET /healthz                                     liveness probe
//	GET /metrics                                     Prometheus text metrics
//	GET /v1/studies/{seed}/disengagements            filtered, paginated events
//	GET /v1/studies/{seed}/accidents                 filtered, paginated accidents
//	GET /v1/studies/{seed}/groupby?by=tag            group-by counts
//	GET /v1/studies/{seed}/metrics/reliability       per-manufacturer DPM/DPA/APM
//	GET /v1/studies/{seed}/tables/{id}               rendered paper table (i..viii)
//	GET /v1/snapshots/{seed}                         raw v2 snapshot stream (peer distribution)
//
// Filter query parameters mirror the avquery flags: mfr, tag, category,
// road, weather, modality, from, to; listings also take offset and limit.
// Accident reports carry only a manufacturer and a time, so the accidents
// route answers 400 to tag, category, road, weather and modality.
//
// Study responses carry HTTP validators when the study is snapshot-backed:
// an ETag derived from the v2 snapshot's CRC-32C (identical on every node
// serving the seed, see etag.go) and a Cache-Control window, so repeated
// conditional requests short-circuit to 304 before any query work. Every
// JSON body is rendered before its header is sent, so a value JSON cannot
// carry (a NaN, a year past 9999) is a 500, never a 200 with a cut body.
// Disengagement pages are written straight from the study's columns
// (query.Engine.AppendEventsJSON). The reliability and table answers take
// no parameters: they are rendered once, when the study is encoded, and
// stored in its v2 snapshot (report.Answers), so serving one is a copy of
// the stored bytes. The other bodies are written by encoding/json. Bodies
// are gzipped at BestSpeed when the client negotiates it, which is most of
// a large page's cost (gzip.go).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"avfda/internal/core"
	"avfda/internal/query"
	"avfda/internal/snapshot2"
)

// Config parameterizes a Server.
type Config struct {
	// Build constructs the study for a seed (required).
	Build BuildFunc
	// CacheSize bounds the number of resident studies; <= 0 means 4.
	CacheSize int
	// SnapshotDir, when non-empty, enables the cache's snapshot tier: a
	// miss maps the seed's v2 columnar snapshot (zero-copy) from this
	// directory before falling back to Build, and successful builds are
	// written through as v2 files.
	SnapshotDir string
	// RequestTimeout bounds each request, including any study build it
	// triggers; <= 0 means 60s.
	RequestTimeout time.Duration
	// SnapshotPeers lists base URLs (http://host:port) of peer avserve
	// backends. A cache miss that finds no local snapshot pulls the
	// seed's v2 snapshot from a peer (CRC re-verified on receipt) before
	// paying a pipeline rebuild. Requires SnapshotDir.
	SnapshotPeers []string
	// SnapshotFetchTimeout bounds each peer snapshot probe; <= 0 means 10s.
	SnapshotFetchTimeout time.Duration
}

// Server is the HTTP API over cached studies. Create with New; it
// implements http.Handler and is safe for concurrent use.
type Server struct {
	cache   *Cache
	metrics *Metrics
	timeout time.Duration
	snapDir string // v2 snapshot directory served to peers; "" disables
	mux     *http.ServeMux
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the client disconnected before the response was ready. It is
// deliberately not a 5xx — nothing server-side failed — and it gets its
// own metrics label so disconnect storms are distinguishable from real
// timeout pressure.
const statusClientClosedRequest = 499

// DefaultListLimit caps listing responses when no limit parameter is
// given; MaxListLimit is the largest accepted limit.
const (
	DefaultListLimit = 50
	MaxListLimit     = 1000
)

// New creates a Server around the given study builder.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	cache, err := NewSnapshotCache(cfg.Build, cfg.CacheSize, cfg.SnapshotDir)
	if err != nil {
		return nil, err
	}
	if err := cache.SetSnapshotPeers(cfg.SnapshotPeers, cfg.SnapshotFetchTimeout); err != nil {
		return nil, err
	}
	s := &Server{
		cache:   cache,
		metrics: NewMetrics(),
		timeout: cfg.RequestTimeout,
		snapDir: cfg.SnapshotDir,
		mux:     http.NewServeMux(),
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /v1/studies/{seed}/disengagements", studyRoute(s, parseList, handleDisengagements))
	s.route("GET /v1/studies/{seed}/accidents", studyRoute(s, parseAccidents, handleAccidents))
	s.route("GET /v1/studies/{seed}/groupby", studyRoute(s, parseGroupBy, handleGroupBy))
	s.route("GET /v1/studies/{seed}/metrics/reliability", studyRoute(s, noParams, handleReliability))
	s.route("GET /v1/studies/{seed}/tables/{id}", studyRoute(s, parseTable, handleTable))
	s.route("GET /v1/snapshots/{seed}", s.handleSnapshot)
	return s, nil
}

// CacheStats exposes the study cache counters (for tests and operators).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// route registers a handler wrapped with the per-request deadline, gzip
// negotiation, and the metrics middleware. The mux pattern (minus the
// method) is the metrics route label, so labels have bounded cardinality.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	label := pattern
	if _, path, ok := strings.Cut(pattern, " "); ok {
		label = path
	}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		// The study a handler resolves is held until the response is
		// written, 304s included, and released here.
		held := &heldStudy{}
		defer func() {
			if held.study != nil {
				s.cache.release(held.study)
			}
		}()
		ctx = context.WithValue(ctx, heldStudyKey{}, held)
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		// Responses differ by negotiated encoding, so every cache between
		// here and the client must key on it.
		w.Header().Set("Vary", "Accept-Encoding")
		if acceptsGzip(r) {
			gz := newGzipResponseWriter(rec)
			h(gz, r.WithContext(ctx))
			gz.close()
		} else {
			h(rec, r.WithContext(ctx))
		}
		s.metrics.Observe(label, rec.code, time.Since(start).Seconds())
	})
}

// heldStudyKey is the request-context key of the route wrapper's
// *heldStudy slot.
type heldStudyKey struct{}

// heldStudy is where study records the study it holds for the request.
type heldStudy struct{ study *Study }

// statusRecorder captures the response code for metrics. It forwards the
// optional streaming interfaces — hiding them would silently buffer whole
// responses on the proxy and snapshot-distribution paths.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status code.
func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so a handler's flush reaches the client
// instead of dying in the wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards io.ReaderFrom, keeping the sendfile fast path for
// snapshot streaming; the fallback strips the method so io.Copy cannot
// recurse back into this one.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := r.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(src)
	}
	return io.Copy(struct{ io.Writer }{r.ResponseWriter}, src)
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// bodies pools the buffers JSON bodies are rendered into.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// writeRendered renders a body into a pooled buffer and only then writes
// it, with the given status and Content-Type and its length (which the
// gzip writer drops when it compresses). A body that fails to render is
// never half sent: the response is the error envelope instead, with
// writeQueryError's status. Any study validator stamped onto the headers
// is withdrawn from an error response: it describes the failure, not the
// study, and must never be cached against the study's entity tag.
func writeRendered(w http.ResponseWriter, code int, contentType string, render func(dst []byte) ([]byte, error)) {
	buf := bodies.Get().(*[]byte)
	defer bodies.Put(buf)
	body, err := render((*buf)[:0])
	*buf = body[:0]
	if err != nil {
		writeQueryError(w, err)
		return
	}
	h := w.Header()
	if code >= http.StatusBadRequest {
		h.Del("ETag")
		h.Del("Cache-Control")
	}
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeRendered(w, code, "application/json", func(dst []byte) ([]byte, error) {
		b := bytes.NewBuffer(dst)
		err := encodeJSON(b, v)
		return b.Bytes(), err
	})
}

// encodeJSON writes v as every JSON body is written: HTML characters
// unescaped, one trailing newline.
func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// writeError emits a JSON error response; writeRendered withdraws any
// study validator.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeAnswer copies the study's stored answer in slot s, with its stored
// status and content type.
func writeAnswer(w http.ResponseWriter, study *Study, s snapshot2.Slot) {
	code, contentType := study.Engine.Answer(s)
	writeRendered(w, code, contentType, func(dst []byte) ([]byte, error) {
		return study.Engine.AppendAnswer(dst, s), nil
	})
}

// study resolves the {seed} path segment and returns the cached (or
// freshly built) study, after running the conditional-request check. A
// false return means the response — error or 304 — is written. The study
// is held until the route wrapper returns.
func (s *Server) study(w http.ResponseWriter, r *http.Request) (*Study, bool) {
	seed, err := strconv.ParseInt(r.PathValue("seed"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad seed %q: want an integer", r.PathValue("seed"))
		return nil, false
	}
	study, err := s.cache.hold(r.Context(), seed)
	switch {
	case err == nil:
		r.Context().Value(heldStudyKey{}).(*heldStudy).study = study
	case errors.Is(err, context.DeadlineExceeded):
		// The request deadline expired while the build kept running in the
		// background; the retry the hint asks for hits the warm cache.
		writeError(w, http.StatusGatewayTimeout,
			"study %d still building; retry shortly", seed)
		return nil, false
	case errors.Is(err, context.Canceled):
		// The client hung up — not a timeout, and nobody is left to read a
		// retry hint. 499 keeps disconnects out of the 5xx budget; the
		// build still completes in the background for the next caller.
		writeError(w, statusClientClosedRequest, "study %d: client closed request", seed)
		return nil, false
	default:
		writeError(w, http.StatusInternalServerError, "build study %d: %v", seed, err)
		return nil, false
	}
	if conditional(w, r, study) {
		return nil, false
	}
	return study, true
}

// studyRoute adapts a study handler to the mux. parse turns the request
// into the route's typed request, writing the 400 or 404 itself when a
// parameter is malformed; only a parsed request reaches s.study, so a bad
// parameter costs a parse, never a study build. The handler receives the
// study and the parsed request together, which is what makes the order
// hold: there is no other way for it to get either.
func studyRoute[T any](s *Server, parse func(http.ResponseWriter, *http.Request, url.Values) (T, bool),
	handle func(http.ResponseWriter, *http.Request, *Study, T)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := parse(w, r, r.URL.Query())
		if !ok {
			return
		}
		if study, ok := s.study(w, r); ok {
			handle(w, r, study, req)
		}
	}
}

// noParams is the parse step of a route that takes no parameters.
func noParams(http.ResponseWriter, *http.Request, url.Values) (struct{}, bool) {
	return struct{}{}, true
}

// listRequest is a listing route's parsed parameters.
type listRequest struct {
	filter query.Filter
	page   query.Page
}

// parseList reads a listing's page and filter: the page first, then the
// filter's month bounds.
func parseList(w http.ResponseWriter, _ *http.Request, q url.Values) (listRequest, bool) {
	page, ok := pageFromQuery(w, q)
	if !ok {
		return listRequest{}, false
	}
	f, ok := filterFromQuery(w, q)
	return listRequest{filter: f, page: page}, ok
}

// parseAccidents reads an accident listing as parseList reads a listing,
// then rejects with a 400 naming the parameter any predicate accident
// reports cannot answer (tag, category, road, weather, modality).
func parseAccidents(w http.ResponseWriter, r *http.Request, q url.Values) (listRequest, bool) {
	req, ok := parseList(w, r, q)
	if !ok {
		return listRequest{}, false
	}
	if err := req.filter.ValidateAccidents(); err != nil {
		writeQueryError(w, err)
		return listRequest{}, false
	}
	return req, true
}

// groupRequest is the group-by route's parsed parameters.
type groupRequest struct {
	filter query.Filter
	by     string
}

// parseGroupBy reads the ?by= column, which must name a column
// GroupCount accepts, and then the filter.
func parseGroupBy(w http.ResponseWriter, _ *http.Request, q url.Values) (groupRequest, bool) {
	by := q.Get("by")
	if by == "" {
		writeError(w, http.StatusBadRequest,
			"missing by parameter: want one of %s", strings.Join(query.GroupColumns(), ", "))
		return groupRequest{}, false
	}
	if !query.IsGroupColumn(by) {
		writeError(w, http.StatusBadRequest,
			"unknown group-by column %q: want one of %s", by, strings.Join(query.GroupColumns(), ", "))
		return groupRequest{}, false
	}
	f, ok := filterFromQuery(w, q)
	return groupRequest{filter: f, by: by}, ok
}

// parseTable resolves the {id} path segment to the table's answer slot;
// an unknown id is a 404. Table II (sample NLP assignments) needs per-run
// sample rows and is not served.
func parseTable(w http.ResponseWriter, r *http.Request, _ url.Values) (snapshot2.Slot, bool) {
	slot, ok := snapshot2.TableSlot(strings.ToLower(r.PathValue("id")))
	if !ok {
		writeError(w, http.StatusNotFound,
			"unknown table %q: want one of i, iii, iv, v, vi, vii, viii", r.PathValue("id"))
	}
	return slot, ok
}

// filterFromQuery maps the query parameters onto a query.Filter whose
// month bounds are checked. A false return means the 400 is written; its
// body is the *query.MonthError text, as the engine reports it.
func filterFromQuery(w http.ResponseWriter, q url.Values) (query.Filter, bool) {
	f := query.Filter{
		Manufacturer: q.Get("mfr"),
		Tag:          q.Get("tag"),
		Category:     q.Get("category"),
		Road:         q.Get("road"),
		Weather:      q.Get("weather"),
		Modality:     q.Get("modality"),
		From:         q.Get("from"),
		To:           q.Get("to"),
	}
	if err := f.Validate(); err != nil {
		writeQueryError(w, err)
		return query.Filter{}, false
	}
	return f, true
}

// pageFromQuery parses offset/limit with defaults and caps. An explicit
// limit of 0 is rejected like any other malformed value — it used to be
// silently promoted to MaxListLimit, handing the client asking for the
// smallest page the largest one — and only an over-max limit is clamped.
// A false return means the error response is written.
func pageFromQuery(w http.ResponseWriter, q url.Values) (query.Page, bool) {
	p := query.Page{Limit: DefaultListLimit}
	for _, arg := range []struct {
		name string
		dst  *int
		min  int
		want string
	}{
		{"offset", &p.Offset, 0, "a non-negative integer"},
		{"limit", &p.Limit, 1, "a positive integer"},
	} {
		raw := q.Get(arg.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < arg.min {
			writeError(w, http.StatusBadRequest, "bad %s %q: want %s", arg.name, raw, arg.want)
			return query.Page{}, false
		}
		*arg.dst = v
	}
	if p.Limit > MaxListLimit {
		p.Limit = MaxListLimit
	}
	return p, true
}

// handleHealthz answers liveness probes without touching the cache.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WriteText(w, s.cache.Stats())
}

// handleDisengagements lists filtered, paginated disengagement events,
// written straight from the study's columns (query.Engine.AppendEventsJSON).
func handleDisengagements(w http.ResponseWriter, _ *http.Request, study *Study, req listRequest) {
	writeRendered(w, http.StatusOK, "application/json", func(dst []byte) ([]byte, error) {
		return study.Engine.AppendEventsJSON(dst, req.filter, req.page)
	})
}

// AccidentPage is one page of accident reports, as produced by the shared
// query engine (the avquery CLI serves the identical structure).
type AccidentPage = query.AccidentPage

// handleAccidents lists accident reports, filtered by mfr and month range,
// the only predicates parseAccidents lets through. The filtering lives in
// the engine — one tested path shared with the CLI — instead of being
// reimplemented inline here.
func handleAccidents(w http.ResponseWriter, _ *http.Request, study *Study, req listRequest) {
	res, err := study.Engine.Accidents(req.filter, req.page)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// GroupByResponse is the group-by endpoint's payload.
type GroupByResponse struct {
	By     string             `json:"by"`
	Total  int                `json:"total"`
	Groups []query.GroupCount `json:"groups"`
}

// handleGroupBy counts filtered events per value of the ?by= column.
func handleGroupBy(w http.ResponseWriter, _ *http.Request, study *Study, req groupRequest) {
	groups, err := study.Engine.GroupCount(req.filter, req.by)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	res := GroupByResponse{By: req.by, Groups: groups}
	for _, g := range groups {
		res.Total += g.Count
	}
	writeJSON(w, http.StatusOK, res)
}

// ReliabilityResponse is the reliability-metrics payload.
type ReliabilityResponse = core.ReliabilityResponse

// handleReliability answers per-manufacturer DPM/DPA/APM metrics from the
// study's stored answer.
func handleReliability(w http.ResponseWriter, _ *http.Request, study *Study, _ struct{}) {
	writeAnswer(w, study, snapshot2.SlotReliability)
}

// handleTable answers one paper table as plain text from the study's
// stored answer.
func handleTable(w http.ResponseWriter, _ *http.Request, study *Study, slot snapshot2.Slot) {
	writeAnswer(w, study, slot)
}

// handleSnapshot streams the seed's raw v2 snapshot file — the peer
// distribution endpoint. A backend that misses locally pulls from here
// instead of paying a pipeline rebuild; the puller re-verifies the CRC on
// receipt, so this side just streams bytes. 404 means "not held here"
// and is a normal miss for the fetcher, not an error.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	seed, err := strconv.ParseInt(r.PathValue("seed"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad seed %q: want an integer", r.PathValue("seed"))
		return
	}
	if s.snapDir == "" {
		writeError(w, http.StatusNotFound, "snapshot distribution disabled: no snapshot directory")
		return
	}
	f, err := os.Open(snapshot2.Path(s.snapDir, seed))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			writeError(w, http.StatusNotFound, "no snapshot for seed %d", seed)
			return
		}
		writeError(w, http.StatusInternalServerError, "open snapshot for seed %d: %v", seed, err)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "stat snapshot for seed %d: %v", seed, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	// ServeContent supplies Content-Length, range requests, and
	// If-Modified-Since for free; the gzip middleware leaves the
	// octet-stream body identity-encoded.
	http.ServeContent(w, r, "", st.ModTime(), f)
}

// writeQueryError maps engine errors to status codes: malformed client
// input — month bounds (*query.MonthError), unknown columns
// (*query.ColumnError) and predicates a listing cannot apply
// (*query.PredicateError) — is 400, the rest 500. Classification is by
// typed error, never by message text, so rewording an error cannot
// silently turn client mistakes into server faults.
func writeQueryError(w http.ResponseWriter, err error) {
	var me *query.MonthError
	var ce *query.ColumnError
	var pe *query.PredicateError
	if errors.As(err, &me) || errors.As(err, &ce) || errors.As(err, &pe) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}
